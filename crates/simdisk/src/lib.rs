//! Simulated storage hardware for the StreamLake reproduction.
//!
//! The paper's store layer runs on Huawei OceanStor Pacific: SSD and HDD
//! storage pools, an RDMA data bus, and optional storage-class-memory (SCM)
//! caches. None of that hardware is available here, so this crate provides a
//! virtual-time model with the same *structure*:
//!
//! * [`device::Device`] — a disk with capacity, a media-specific latency /
//!   bandwidth model, a service queue (`busy_until`), and injectable faults;
//!   `MediaKind::Scm` is the SCM staging device stream objects flush into;
//! * [`pool::StoragePool`] — a named collection of devices with extent
//!   allocation, redundancy-aware placement (distinct devices per shard) and
//!   garbage collection;
//! * [`bus::Transport`] — the data exchange and interworking bus's cost
//!   model, RDMA against TCP;
//! * [`fault::FaultInjector`] — seeded, virtual-time chaos schedules
//!   (outages, death, silent bit-rot, torn writes, gray degradation).
//!
//! The crate moves no data between pools on its own: aged stream data
//! reaches the HDD pool through the stream layer's archive chore.
//!
//! All latency is charged against a [`common::SimClock`], so experiments are
//! deterministic and independent of the host machine.

pub(crate) mod bus;
pub mod device;
pub(crate) mod fault;
pub mod pool;

pub use bus::Transport;
pub use device::{Device, DeviceHealth, MediaKind};
pub use fault::{FaultInjector, FaultPlan, FaultPlanConfig, InjectionLog};
pub use pool::{ExtentHandle, StoragePool};

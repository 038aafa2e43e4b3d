//! `stream_rt` — produce/consume round trips through the front door.
//!
//! Many tiny operations: one `FrontDoor::produce` per 1 KiB record
//! (Zipf(0.99) keys over 4096, 16 partitions), one `FrontDoor::consume`
//! per [`POLL_EVERY`] produces, then a drain. Arrivals follow an open-loop
//! Poisson schedule in virtual time (5 k msg/virtual-s on average, drawn
//! from the seed); in wall-clock the single client waits for every reply. No chores run, and `format`, `lake`,
//! `core.query` and `core.chore` do nothing here.

use super::{ctx_at, scaled, Verdict, Workload};
use crate::layers::{Evidence, Layers};
use crate::rng::{hash_bytes, Rng, Zipf};
use crate::trace::{Open, Recorder};
use crate::wall;
use common::clock::Nanos;
use common::ctx::IoCtx;
use std::sync::Arc;
use stream::{ConsumedRecord, TopicConfig};
use streamlake::{FrontDoor, FrontDoorConfig, Permission, StreamLake, StreamLakeConfig};

const TOPIC: &str = "rt";
const GROUP: &str = "rt-readers";
const TENANT: &str = "bench";
const TOKEN: &str = "tok-bench";
const PARTITIONS: u32 = 16;
const KEYS: usize = 4096;
const VALUE_BYTES: usize = 1024;
/// Mean virtual arrival spacing: 5 k msg per virtual second — below what
/// the simulated devices sustain with one stripe write per produce, so the
/// virtual backlog does not grow with the run length.
const ARRIVAL_NS: Nanos = 200_000;
/// Tenant token-bucket rate: twice the arrival rate, so nothing is refused.
const TENANT_RATE: u64 = 10_000;
/// One consume call per this many produces.
pub const POLL_EVERY: usize = 64;
const POLL_MAX: usize = 256;
/// The `stream` drill-down replays the first 1/this of the records.
const REPLAY_SHARE: usize = 5;
/// Records produced per second of `--seconds` budget.
const OPS_PER_SECOND: usize = 28_800;

pub struct StreamRt;

pub struct Inputs {
    /// Virtual arrival time of each record (exponential gaps).
    arrivals: Vec<Nanos>,
    /// Zipf rank of each record's key.
    keys: Vec<u16>,
    /// Record values (each pass hands the program a copy); the first 8
    /// bytes hold the record's index.
    values: Vec<Vec<u8>>,
    /// Order-insensitive digest of every `(key, value)`: what a pass must
    /// deliver.
    digest: u64,
}

pub struct Dep {
    door: FrontDoor,
}

#[derive(Default)]
pub struct Outputs {
    delivered: Vec<ConsumedRecord>,
    acked: u64,
}

fn key_bytes(rank: u16) -> Vec<u8> {
    format!("user-{rank}").into_bytes()
}

fn record_hash(key: &[u8], value: &[u8]) -> u64 {
    hash_bytes(key)
        .wrapping_mul(31)
        .wrapping_add(hash_bytes(value))
}

pub fn bring_up() -> FrontDoor {
    let lake = Arc::new(StreamLake::new(StreamLakeConfig::evaluation()));
    lake.stream()
        .create_topic(TOPIC, TopicConfig::with_partitions(PARTITIONS))
        .expect("create topic");
    let door = FrontDoor::new(lake, FrontDoorConfig::default());
    let principal = door.register_tenant(TENANT, TOKEN, TENANT_RATE);
    door.access().grant(&principal, "topic/", Permission::Write);
    door.access().grant(&principal, "topic/", Permission::Read);
    door
}

impl Workload for StreamRt {
    const NAME: &'static str = "stream_rt";
    type Inputs = Inputs;
    type Dep = Dep;
    type Outputs = Outputs;

    fn ops(seconds: u64, quick: bool) -> usize {
        scaled(OPS_PER_SECOND, seconds, quick, 4 * POLL_EVERY)
    }

    fn generate(seed: u64, ops: usize) -> Inputs {
        let zipf = Zipf::new(KEYS, 0.99);
        let mut key_rng = Rng::new(seed, 1);
        let mut val_rng = Rng::new(seed, 2);
        let mut gap_rng = Rng::new(seed, 6);
        let mut arrivals = Vec::with_capacity(ops);
        let mut now: Nanos = 0;
        let mut keys = Vec::with_capacity(ops);
        let mut values = Vec::with_capacity(ops);
        let mut digest = 0u64;
        for i in 0..ops {
            let rank = zipf.sample(&mut key_rng) as u16;
            let mut value = vec![0u8; VALUE_BYTES];
            val_rng.fill(&mut value);
            value[..8].copy_from_slice(&(i as u64).to_le_bytes());
            digest = digest.wrapping_add(record_hash(&key_bytes(rank), &value));
            now += gap_rng.exp(ARRIVAL_NS as f64) as Nanos;
            arrivals.push(now);
            keys.push(rank);
            values.push(value);
        }
        Inputs {
            arrivals,
            keys,
            values,
            digest,
        }
    }

    fn setup(_inputs: &Inputs, _rec: &mut Recorder) -> Dep {
        Dep { door: bring_up() }
    }

    fn run(dep: &mut Dep, inputs: &Inputs, ops: usize, warm: usize, rec: &mut Recorder) -> Outputs {
        let door = &dep.door;
        let traced = rec.traced;
        let mut out = Outputs {
            delivered: Vec::with_capacity(ops),
            acked: 0,
        };
        let mut pass = rec.start();
        let consume =
            |rec: &mut Recorder, out: &mut Outputs, pass: Open, now: Nanos, req: u64| -> usize {
                let ctx = ctx_at(door.lake(), traced, now);
                let op = rec.open("core.frontdoor.consume", pass, req);
                let got = door.consume(TOKEN, GROUP, TOPIC, POLL_MAX, &ctx);
                rec.close_read(op);
                match got {
                    Ok(records) => {
                        let n = records.len();
                        out.delivered.extend(records);
                        n
                    }
                    Err(_) => {
                        rec.failed += 1;
                        0
                    }
                }
            };
        for i in 0..ops {
            if i == warm {
                pass = rec.start();
            }
            let arrival = inputs.arrivals[i];
            let ctx = ctx_at(door.lake(), traced, arrival);
            let key = key_bytes(inputs.keys[i]);
            let value = inputs.values[i].clone();
            let op = rec.open("core.frontdoor.produce", pass, i as u64);
            let ack = door.produce(TOKEN, TOPIC, key, value, &ctx);
            rec.close_write(op);
            match ack {
                Ok(Some(ack)) => {
                    out.acked += 1;
                    rec.virt_ns.push(ack.ack_time.saturating_sub(arrival));
                }
                _ => rec.failed += 1,
            }
            if (i + 1) % POLL_EVERY == 0 {
                consume(rec, &mut out, pass, arrival, i as u64);
            }
        }
        // Drain: poll until everything acked has come back; a handful of
        // empty polls in a row means records were lost.
        let end = inputs.arrivals[..ops].last().map_or(0, |t| t + ARRIVAL_NS);
        let mut empty = 0;
        while (out.delivered.len() as u64) < out.acked && empty < 4 {
            if consume(rec, &mut out, pass, end, ops as u64) == 0 {
                empty += 1;
            } else {
                empty = 0;
            }
        }
        rec.finish(pass);
        out
    }

    fn verify(_dep: &Dep, inputs: &Inputs, ops: usize, out: &Outputs) -> Verdict {
        let mut v = Verdict::default();
        let mut seen = vec![false; ops];
        // Last index delivered per key rank: a key lives in one partition,
        // so its indices must only grow.
        let mut last: Vec<i64> = vec![-1; KEYS];
        let (mut dup, mut order, mut alien, mut digest) = (0u64, 0u64, 0u64, 0u64);
        for r in &out.delivered {
            let value = &r.record.value;
            let idx = value
                .get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize)
                .filter(|&i| i < ops && value.len() == VALUE_BYTES);
            let Some(idx) = idx else {
                alien += 1;
                continue;
            };
            if r.record.key != key_bytes(inputs.keys[idx]) {
                alien += 1;
                continue;
            }
            if std::mem::replace(&mut seen[idx], true) {
                dup += 1;
                continue;
            }
            let rank = inputs.keys[idx] as usize;
            if (idx as i64) < last[rank] {
                order += 1;
            }
            last[rank] = idx as i64;
            digest = digest.wrapping_add(record_hash(&r.record.key, value));
            v.logical_bytes += (r.record.key.len() + value.len()) as u64;
            v.primary_ops += 1;
        }
        let lost = seen.iter().filter(|s| !**s).count() as u64;
        v.dup_or_lost = dup + lost;
        v.wrong(dup, format!("{dup} records delivered more than once"));
        v.wrong(lost, format!("{lost} records never delivered"));
        v.wrong(order, format!("{order} records out of per-key order"));
        v.wrong(
            alien,
            format!("{alien} delivered records the generator never made"),
        );
        if digest != inputs.digest && v.wrong == 0 {
            v.wrong(1, "delivered digest differs from the generator's");
        }
        v.digest = digest;
        v
    }

    fn lake(dep: &Dep) -> &StreamLake {
        dep.door.lake()
    }

    fn layers(
        dep: &mut Dep,
        inputs: &Inputs,
        ops: usize,
        _out: &Outputs,
        ev: &Evidence,
        l: &mut Layers,
    ) {
        let stats = dep.door.tenant_stats(TENANT);
        let refused = stats.map_or(0, |s| s.rate_limited + s.shed + s.breaker_rejected);
        l.set("core.frontdoor.refused", refused as f64);
        l.set(
            "core.frontdoor.journal_events",
            dep.door.admission_journal().len() as f64,
        );

        // `stream` replay: the warm-up and the first timed records straight
        // into the stream service on a fresh deployment — same keys,
        // values, arrival times and poll cadence, no front door. Only the
        // timed ones are measured.
        let n = ((ops - ev.warm) / REPLAY_SHARE).max(1);
        let sl = StreamLake::new(StreamLakeConfig::evaluation());
        sl.stream()
            .create_topic(TOPIC, TopicConfig::with_partitions(PARTITIONS))
            .expect("replay topic");
        let mut producer = sl.producer();
        producer.set_batch_size(1);
        let mut consumer = sl.consumer(GROUP);
        consumer.subscribe(TOPIC).expect("replay subscribe");
        let (mut send_ns, mut poll_ns, mut polls, mut polled) = (0u64, 0u64, 0usize, 0u64);
        for i in 0..ev.warm + n {
            let ctx = IoCtx::new(inputs.arrivals[i]);
            let (key, value) = (key_bytes(inputs.keys[i]), inputs.values[i].clone());
            let t = wall::now();
            producer.send(TOPIC, key, value, &ctx).expect("replay send");
            let sent = wall::ns_since(t);
            let mut poll = None;
            if (i + 1) % POLL_EVERY == 0 {
                let t = wall::now();
                let got = consumer.poll(POLL_MAX, &ctx).expect("replay poll").len() as u64;
                poll = Some((wall::ns_since(t), got));
            }
            if i >= ev.warm {
                send_ns += sent;
                if let Some((ns, got)) = poll {
                    poll_ns += ns;
                    polled += got;
                    polls += 1;
                }
            }
        }
        drop((producer, consumer, sl));
        l.set("stream.produce_ns_per_rec", send_ns as f64 / n as f64);
        l.set(
            "stream.poll_ns_per_rec",
            poll_ns as f64 / polled.max(1) as f64,
        );

        // The same operations end to end, on the untraced reference pass.
        let e2e_ns: u64 = ev.plain.write_ns[..n].iter().sum::<u64>()
            + ev.plain.read_ns[..polls].iter().sum::<u64>();
        let door_share = 1.0 - (send_ns + poll_ns) as f64 / e2e_ns.max(1) as f64;
        l.set("core.frontdoor.self_share", door_share);

        // Ledger: the door's share of every op span; `stream` is the rest
        // minus one PLog append and one PLog read per record.
        let op_ns = ev.span_ns("core.frontdoor.produce") + ev.span_ns("core.frontdoor.consume");
        let record = l.plog_costs(ev.delta.plog_logical / ops.max(1) as u64);
        l.read_size_hint = Some(record.size as u64);
        let timed = (ops - ev.warm) as f64;
        l.credit("core.frontdoor", door_share * op_ns);
        l.credit(
            "stream",
            (1.0 - door_share) * op_ns - timed * (record.append_ns + record.read_ns),
        );
        l.notes.push(format!(
            "  core.frontdoor = 1 - (stream replay / untraced end-to-end) over the first {n} timed records and their polls"
        ));
    }
}

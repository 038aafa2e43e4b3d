//! One violation of each determinism and error-hygiene rule (DESIGN.md,
//! "Determinism invariants"), each under the `#[expect]` that its lint must
//! fulfil. `tests/lint_gate.rs` lints the non-test code against
//! `crates/clippy.toml` and the test module against `lint/tests/clippy.toml`,
//! with unfulfilled expectations denied: a ban entry that resolves to the
//! wrong item, a lint that was renamed or a list the gate no longer reads
//! fails tier-1.

#[cfg(not(test))]
pub mod non_test {
    use common::{IoCtx, SimClock};

    #[expect(clippy::disallowed_types, reason = "fixture: R1 must fire")]
    pub fn r1_instant() -> std::time::Instant {
        std::time::Instant::now()
    }

    #[expect(clippy::disallowed_types, reason = "fixture: R1 must fire")]
    pub fn r1_system_time() -> std::time::SystemTime {
        std::time::SystemTime::now()
    }

    #[expect(clippy::disallowed_types, reason = "fixture: R2 must fire")]
    pub fn r2_random_state() -> std::hash::RandomState {
        std::hash::RandomState::new()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture: R3 must fire")]
    pub fn r3_sleep() {
        std::thread::sleep(std::time::Duration::ZERO);
    }

    #[expect(clippy::disallowed_methods, reason = "fixture: R3 must fire")]
    pub fn r3_fs_read() -> std::io::Result<Vec<u8>> {
        std::fs::read("x")
    }

    #[expect(clippy::disallowed_types, reason = "fixture: R3 must fire")]
    pub fn r3_file(f: std::fs::File) -> std::fs::File {
        f
    }

    #[expect(clippy::disallowed_types, reason = "fixture: R3 must fire")]
    pub fn r3_open_options() -> std::fs::OpenOptions {
        std::fs::OpenOptions::new()
    }

    #[expect(clippy::disallowed_types, reason = "fixture: R5 must fire")]
    pub fn r5_hash_map() -> std::collections::HashMap<u8, u8> {
        std::collections::HashMap::new()
    }

    #[expect(clippy::disallowed_types, reason = "fixture: R5 must fire")]
    pub fn r5_hash_set() -> std::collections::HashSet<u8> {
        std::collections::HashSet::new()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture: R7 must fire")]
    pub fn r7_advance(clock: &SimClock) -> u64 {
        clock.advance(1)
    }

    #[expect(clippy::disallowed_methods, reason = "fixture: R10 must fire")]
    pub fn r10_root_ctx() -> IoCtx {
        IoCtx::new(0)
    }

    #[expect(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        reason = "fixture: R4 must fire"
    )]
    pub fn r4(n: u8, a: Option<u8>, b: Result<u8, u8>) -> u8 {
        match n {
            0 => panic!("R4"),
            1 => unreachable!("R4"),
            2 => todo!("R4"),
            3 => unimplemented!("R4"),
            _ => a.unwrap() + b.expect("R4"),
        }
    }

    #[expect(
        unsafe_code,
        clippy::undocumented_unsafe_blocks,
        reason = "fixture: R6 must fire"
    )]
    pub fn r6(p: &u8) -> u8 {
        unsafe { *(p as *const u8) }
    }

    #[expect(
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        reason = "fixture: R11 must fire"
    )]
    pub fn r11(r: fn() -> Result<(), ()>) {
        let _ = r();
        r().ok();
    }

    #[expect(clippy::allow_attributes, reason = "fixture: W1 must fire")]
    pub mod w1_allow {
        #[allow(clippy::needless_range_loop, reason = "a waiver must be an `expect`")]
        pub fn f() {}
    }

    #[expect(
        clippy::allow_attributes_without_reason,
        reason = "fixture: W1 must fire"
    )]
    pub mod w1_reasonless {
        #[expect(clippy::needless_range_loop)]
        pub fn f(v: &mut [u8]) {
            for i in 0..v.len() {
                v[i] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[expect(clippy::disallowed_types, reason = "fixture: R1 must fire in tests")]
    fn r1_instant() {
        let _ = std::time::Instant::now();
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "fixture: R1 must fire in tests")]
    fn r1_system_time() {
        let _ = std::time::SystemTime::now();
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "fixture: R2 must fire in tests")]
    fn r2_random_state() {
        let _ = std::hash::RandomState::new();
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "fixture: R3 must fire in tests")]
    fn r3_sleep() {
        std::thread::sleep(std::time::Duration::ZERO);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "fixture: R3 must fire in tests")]
    fn r3_fs_read() {
        let _ = std::fs::read("x");
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "fixture: R3 must fire in tests")]
    fn r3_open_options() {
        let _ = std::fs::OpenOptions::new();
    }

    #[expect(clippy::disallowed_types, reason = "fixture: R3 must fire in tests")]
    fn _r3_file(f: std::fs::File) -> std::fs::File {
        f
    }
}

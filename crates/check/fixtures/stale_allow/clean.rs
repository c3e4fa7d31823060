// Seeded negative for `dynlint --fixture stale-allow`. NOT compiled: this
// file exists only to be linted, together with the `dynlint.allow` next to
// it. It reads the wall clock once, so the allowlist's `instant-now` entry
// is live; it never sleeps, so the `thread-sleep` entry excuses nothing —
// the state `crates/sim/src/engine.rs` was in once real-clock mode went.

fn elapsed_ns(epoch: Instant) -> u64 {
    Instant::now().duration_since(epoch).as_nanos() as u64
}

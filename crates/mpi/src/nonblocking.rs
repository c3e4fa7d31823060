//! Nonblocking sends: `MPI_Isend` / `MPI_Wait`, as smg98 and sppm use them.
//!
//! Modelled with the semantics real applications rely on:
//!
//! * `isend` buffers eagerly and completes locally at once (the paper-era
//!   IBM MPI buffered small nonblocking sends the same way; large
//!   nonblocking sends are also buffered here — the simulator charges the
//!   copy but does not model sender-side rendezvous progress); the
//!   receiver takes the message with a blocking `recv`;
//! * requests must be waited on exactly once (dropping an incomplete
//!   request panics, catching lost-request bugs in applications).

use dynprof_sim::Proc;

use crate::comm::Comm;
use crate::data::MpiData;
use crate::types::{MpiOp, Tag};

/// A pending nonblocking send.
#[must_use = "MPI requests must be completed with wait()"]
pub struct SendRequest {
    done: bool,
}

impl SendRequest {
    /// Complete the send (no-op for the buffered model, but required for
    /// API discipline).
    pub fn wait(mut self, _p: &Proc) {
        self.done = true;
    }
}

impl Drop for SendRequest {
    fn drop(&mut self) {
        if !self.done && !std::thread::panicking() {
            panic!("MPI send request dropped without wait()");
        }
    }
}

impl Comm {
    /// `MPI_Isend`: start a send; completes locally immediately (buffered).
    pub fn isend<T: MpiData>(&self, p: &Proc, dst: usize, tag: Tag, data: T) -> SendRequest {
        let bytes = data.byte_len();
        self.hooked(p, MpiOp::Send, Some(dst), bytes, |p| {
            self.send_eager(p, dst, tag, data)
        });
        SendRequest { done: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{launch, JobSpec};
    use crate::types::{Source, TagSel};
    use dynprof_sim::{Machine, Sim};
    use std::sync::Arc;

    fn run_job<F>(ranks: usize, body: F)
    where
        F: Fn(&Proc, &Comm) + Send + Sync + 'static,
    {
        let sim = Sim::virtual_time(Machine::test_machine(), 3);
        launch(&sim, JobSpec::new("nb", ranks), vec![], body);
        sim.run();
    }

    #[test]
    fn large_isend_does_not_block() {
        // A >eager-limit nonblocking send must not rendezvous-deadlock
        // when both sides send before receiving.
        run_job(2, |p, c| {
            c.init(p);
            let big = vec![1.0f64; 20_000]; // 160 KB
            let peer = 1 - c.rank();
            let s = c.isend(p, peer, Tag::user(1), big);
            let (v, st) = c.recv::<Vec<f64>>(p, Source::Rank(peer), TagSel::Any);
            s.wait(p);
            assert_eq!(v.len(), 20_000);
            assert_eq!(st.bytes, 160_000);
            c.finalize(p);
        });
    }

    #[test]
    #[should_panic(expected = "dropped without wait")]
    fn dropping_a_request_panics() {
        run_job(2, |p, c| {
            c.init(p);
            if c.rank() == 0 {
                let _r = c.isend(p, 1, Tag::user(0), 1u64);
                // dropped here
            } else {
                let _ = c.recv::<u64>(p, Source::Rank(0), TagSel::Any);
            }
            c.finalize(p);
        });
    }

    #[test]
    fn hooks_observe_nonblocking_ops() {
        use crate::hooks::MpiHooks;
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Count(AtomicUsize);
        impl MpiHooks for Count {
            fn on_call_end(&self, _: &Proc, _: &Comm, op: MpiOp, _: Option<usize>, _: usize) {
                if matches!(op, MpiOp::Send | MpiOp::Recv) {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let hook = Arc::new(Count::default());
        let h2 = Arc::clone(&hook);
        let sim = Sim::virtual_time(Machine::test_machine(), 3);
        launch(&sim, JobSpec::new("nb", 2), vec![h2], |p, c| {
            c.init(p);
            if c.rank() == 0 {
                c.isend(p, 1, Tag::user(0), 5u8).wait(p);
            } else {
                let _ = c.recv::<u8>(p, Source::Any, TagSel::Any);
            }
            c.finalize(p);
        });
        sim.run();
        assert_eq!(hook.0.load(Ordering::Relaxed), 2);
    }
}

//! Stackful coroutine runtime backing the engine's `coroutine` process
//! backend (see [`crate::engine::ProcBackend`]).
//!
//! A simulated process becomes a *green task*: a private, guard-paged
//! stack plus a saved stack pointer. Suspending and resuming is one
//! direct `call` to [`switch`] — save six callee-saved registers and the
//! floating-point control words, swap `rsp`, restore, `ret` — roughly
//! the cost of a well-predicted function call, instead of the
//! `park`/`unpark` futex round trip (two syscalls plus a scheduler trip)
//! the `threads` backend pays per event.
//!
//! The runtime is deliberately tiny and engine-shaped rather than
//! general:
//!
//! * **No scheduler here.** The engine decides who runs; this module
//!   only knows how to build a resumable stack and jump between two of
//!   them.
//! * **Single driving thread.** Every coroutine of a simulation runs on
//!   the thread inside `Sim::run` (which is also what keeps the engine's
//!   dispatch order bit-for-bit identical to the `threads` backend).
//!   Nothing in this module is thread-safe and nothing needs to be.
//! * **No unwinding across the boundary.** The fabricated root frame has
//!   no unwind tables; the engine wraps every process body in
//!   `catch_unwind`, and a finished body *returns* a [`FinalSwitch`] to
//!   [`dynprof_sim_co_main`], which performs the last jump only after
//!   the closure environment has been dropped — so a completed coroutine
//!   leaks nothing.
//!
//! Stacks are `mmap`ed with a [`GUARD_BYTES`]-sized `PROT_NONE` guard at
//! the low end: an overflow faults loudly instead of corrupting a
//! neighbouring coroutine, and because pages are committed lazily a
//! 10k-rank simulation costs virtual address space, not resident memory.
//! The usable size defaults to [`DEFAULT_STACK_BYTES`] and can be raised
//! with `DYNPROF_CO_STACK_KB` for unusually deep process bodies.
//!
//! Only x86-64 Linux is implemented (the System V ABI switch in
//! `global_asm!`); [`supported`] is `false` elsewhere and the engine
//! falls back to the `threads` backend.

/// Is the coroutine backend available on this target?
pub(crate) fn supported() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
}

/// A boot closure: runs the process body to completion (catching any
/// unwind) and *returns* the final context switch for
/// [`dynprof_sim_co_main`] to perform once the closure's environment has
/// been dropped. It must never unwind.
pub(crate) type BootFn = Box<dyn FnOnce() -> FinalSwitch>;

/// The last jump of a finished coroutine: save the (never again resumed)
/// context into `save`, resume `to`. Raw pointers only, so it can be
/// carried out after every owned value on the dying stack is gone.
#[derive(Clone, Copy)]
pub(crate) struct FinalSwitch {
    /// Where to store the dying coroutine's stack pointer.
    pub(crate) save: *mut *mut u8,
    /// Stack pointer of the context to resume.
    pub(crate) to: *mut u8,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::BootFn;
    use core::ffi::c_void;
    use std::sync::OnceLock;

    // Raw mmap/mprotect/munmap declarations (x86-64 Linux values): the
    // workspace vendors every dependency, so no libc crate is available.
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    /// Don't reserve swap for the mapping: stacks are committed lazily,
    /// so thousands of mostly-idle coroutines stay cheap.
    const MAP_NORESERVE: i32 = 0x4000;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
    }

    /// x86-64 page size (the kernel ABI constant for this target).
    const PAGE: usize = 4096;
    /// Guard region at the low end of every stack: four pages, so even a
    /// large spilled frame that skips the first page still faults.
    const GUARD_BYTES: usize = 4 * PAGE;
    /// Default usable stack per coroutine (virtual; committed lazily).
    const DEFAULT_STACK_BYTES: usize = 1024 * 1024;

    /// Usable stack size, read once from `DYNPROF_CO_STACK_KB`. A value
    /// that does not parse stops the run with [`parse_stack_kb`]'s message.
    pub(crate) fn stack_bytes() -> usize {
        static BYTES: OnceLock<usize> = OnceLock::new();
        *BYTES.get_or_init(|| match std::env::var_os("DYNPROF_CO_STACK_KB") {
            Some(v) => parse_stack_kb(&v.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")),
            None => DEFAULT_STACK_BYTES,
        })
    }

    /// A `DYNPROF_CO_STACK_KB` value as usable stack bytes: a whole
    /// number of KiB, at least 16, rounded up to whole pages.
    pub(super) fn parse_stack_kb(value: &str) -> Result<usize, String> {
        value
            .parse::<usize>()
            .ok()
            .and_then(|kb| kb.max(16).checked_mul(1024)?.checked_next_multiple_of(PAGE))
            .ok_or_else(|| format!("DYNPROF_CO_STACK_KB={value:?}: expected a whole number of KiB"))
    }

    // The context switch and the entry thunk.
    //
    // `dynprof_sim_co_switch(save: *mut *mut u8 (rdi), to: *mut u8 (rsi))`
    // pushes the System V callee-saved registers and the two FP control
    // words onto the current stack, publishes the resulting `rsp` through
    // `save`, adopts `to` as the new `rsp`, and restores in reverse. The
    // caller-saved half of the register file needs no save: from the
    // compiler's point of view this is an ordinary `extern "C"` call.
    //
    // A suspended context therefore always looks like (low → high):
    //
    //   sp → [mxcsr:u32][fcw:u16][pad:u16]   FP control words
    //        [r15][r14][r13][r12][rbx][rbp]  callee-saved registers
    //        [return address]                resume point
    //
    // `dynprof_sim_co_entry` is the fabricated *return address* of a
    // never-started coroutine: [`RawCo::new`] builds exactly the image
    // above with the boot pointer parked in the r12 slot, so the very
    // first resume flows through the same restore path as every later
    // one. The thunk moves the boot pointer into `rdi`, clears `rbp` to
    // terminate backtraces, and calls [`dynprof_sim_co_main`]; at the
    // `call` the stack sits at the 16-byte-aligned stack top, giving the
    // callee a standard ABI-aligned frame. `co_main` never returns (the
    // `ud2` documents that), so nothing below the entry frame is ever
    // popped.
    core::arch::global_asm!(
        ".text",
        ".globl dynprof_sim_co_switch",
        ".type dynprof_sim_co_switch,@function",
        "dynprof_sim_co_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp]",
        "fnstcw word ptr [rsp + 4]",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr dword ptr [rsp]",
        "fldcw word ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size dynprof_sim_co_switch, . - dynprof_sim_co_switch",
        ".globl dynprof_sim_co_entry",
        ".type dynprof_sim_co_entry,@function",
        "dynprof_sim_co_entry:",
        "mov rdi, r12",
        "xor ebp, ebp",
        "call dynprof_sim_co_main",
        "ud2",
        ".size dynprof_sim_co_entry, . - dynprof_sim_co_entry",
    );

    extern "C" {
        fn dynprof_sim_co_switch(save: *mut *mut u8, to: *mut u8);
        fn dynprof_sim_co_entry();
    }

    /// Rust landing point of a freshly started coroutine. `raw` is the
    /// `Box<BootFn>` pointer that [`RawCo::new`] parked in the r12 slot.
    ///
    /// Runs the boot closure (which owns the process body and must catch
    /// every unwind), drops its environment, then performs the closure's
    /// returned [`FinalSwitch`] — at which point this stack owns nothing
    /// and is safe to unmap once execution has moved elsewhere. Reaching
    /// the end would mean a finished coroutine was resumed: abort.
    #[no_mangle]
    unsafe extern "C" fn dynprof_sim_co_main(raw: *mut c_void) -> ! {
        let fin = {
            let boot: BootFn = *Box::from_raw(raw as *mut BootFn);
            boot()
        };
        dynprof_sim_co_switch(fin.save, fin.to);
        std::process::abort()
    }

    /// Save the current context's stack pointer into `save` and resume
    /// the context whose stack pointer is `to`.
    ///
    /// # Safety
    ///
    /// `to` must be a stack pointer previously published by this function
    /// (or fabricated by [`RawCo::new`]) and not resumed since; `save`
    /// must stay valid until the saved context is resumed or discarded.
    /// No references to data that another context may mutably access may
    /// be live across the call.
    pub(crate) unsafe fn switch(save: *mut *mut u8, to: *mut u8) {
        dynprof_sim_co_switch(save, to);
    }

    /// A guard-paged `mmap`ed coroutine stack.
    struct CoStack {
        map: *mut u8,
        len: usize,
    }

    impl CoStack {
        fn new(usable: usize) -> CoStack {
            let len = usable + GUARD_BYTES;
            unsafe {
                let map = mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1,
                    0,
                );
                assert!(
                    !core::ptr::eq(map, usize::MAX as *mut c_void),
                    "coroutine stack mmap ({len} bytes) failed: out of address space, \
                     or the process holds vm.max_map_count mappings"
                );
                let rc = mprotect(map, GUARD_BYTES, PROT_NONE);
                assert_eq!(
                    rc, 0,
                    "coroutine stack guard mprotect failed: the process holds \
                     vm.max_map_count mappings (two per coroutine stack)"
                );
                CoStack {
                    map: map as *mut u8,
                    len,
                }
            }
        }

        /// One past the highest usable byte; page- (hence 16-) aligned.
        fn top(&self) -> *mut u8 {
            unsafe { self.map.add(self.len) }
        }
    }

    impl Drop for CoStack {
        fn drop(&mut self) {
            unsafe {
                let rc = munmap(self.map as *mut c_void, self.len);
                debug_assert_eq!(rc, 0, "coroutine stack munmap failed");
            }
        }
    }

    /// A coroutine: its stack and, while suspended, the stack pointer
    /// that resumes it.
    pub(crate) struct RawCo {
        /// Resume point. Valid only while the coroutine is suspended;
        /// while it runs this holds the *previous* (stale) save.
        pub(crate) resume_sp: *mut u8,
        stack: CoStack,
    }

    /// Default MXCSR (all exceptions masked, round-to-nearest) and x87
    /// control word, in the layout [`switch`] restores: mxcsr in the low
    /// four bytes, fcw in the next two.
    const FP_DEFAULTS: u64 = 0x0000_037F_0000_1F80;

    impl RawCo {
        /// Build a never-started coroutine whose first resume runs the
        /// boot closure behind `boot_raw` (a `Box<BootFn>` raw pointer;
        /// ownership passes to the coroutine on first resume — until
        /// then the caller is responsible for freeing it).
        pub(crate) fn new(usable_stack: usize, boot_raw: *mut c_void) -> RawCo {
            let stack = CoStack::new(usable_stack);
            let top = stack.top();
            // Fabricate the suspended-context image described at the
            // `global_asm!` block (offsets from the stack top).
            unsafe {
                let slot = |off: usize| top.sub(off) as *mut u64;
                let entry: unsafe extern "C" fn() = dynprof_sim_co_entry;
                *slot(8) = entry as *const () as u64; // return address
                *slot(16) = 0; // rbp
                *slot(24) = 0; // rbx
                *slot(32) = boot_raw as u64; // r12: boot pointer
                *slot(40) = 0; // r13
                *slot(48) = 0; // r14
                *slot(56) = 0; // r15
                *slot(64) = FP_DEFAULTS;
                RawCo {
                    resume_sp: top.sub(64),
                    stack,
                }
            }
        }

        /// Bytes of usable stack (diagnostics).
        #[allow(dead_code)]
        pub(crate) fn usable_bytes(&self) -> usize {
            self.stack.len - GUARD_BYTES
        }

        /// Deepest this stack has ever been written, in bytes below its
        /// top. The mapping starts zeroed and is committed lazily, so
        /// the answer is the lowest non-zero byte of the lowest resident
        /// page (`mincore`): one syscall and at most one page read, and
        /// no page is touched that was not resident already. A frame
        /// that reserved space without writing it does not count — what
        /// is measured is what costs memory.
        pub(crate) fn stack_high_water(&self) -> usize {
            let usable = self.usable_bytes();
            let mut resident = vec![0u8; usable / PAGE];
            // SAFETY: `low..low + usable` is this stack's own readable
            // mapping (everything above the guard), page-aligned, and
            // `resident` has one byte per page of it, as `mincore` asks.
            // The one page read is resident, hence mapped and written.
            unsafe {
                let low = self.stack.map.add(GUARD_BYTES);
                let rc = mincore(low as *mut c_void, usable, resident.as_mut_ptr());
                assert_eq!(rc, 0, "coroutine stack mincore failed");
                let Some(page) = resident.iter().position(|r| r & 1 != 0) else {
                    return 0;
                };
                let page = std::slice::from_raw_parts(low.add(page * PAGE), PAGE);
                let clean = page.iter().take_while(|&&b| b == 0).count();
                self.stack.top() as usize - (page.as_ptr() as usize + clean)
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    //! Stub for unsupported targets: [`super::supported`] is `false`, so
    //! the engine never constructs a coroutine here; every entry point
    //! is an unreachable placeholder that keeps the crate compiling.
    use core::ffi::c_void;

    pub(crate) fn stack_bytes() -> usize {
        unreachable!("coroutine backend unsupported on this target")
    }

    pub(crate) unsafe fn switch(_save: *mut *mut u8, _to: *mut u8) {
        unreachable!("coroutine backend unsupported on this target")
    }

    pub(crate) struct RawCo {
        pub(crate) resume_sp: *mut u8,
    }

    impl RawCo {
        pub(crate) fn new(_usable_stack: usize, _boot_raw: *mut c_void) -> RawCo {
            unreachable!("coroutine backend unsupported on this target")
        }

        pub(crate) fn stack_high_water(&self) -> usize {
            unreachable!("coroutine backend unsupported on this target")
        }
    }
}

pub(crate) use imp::{stack_bytes, switch, RawCo};

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use core::ffi::c_void;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    #[test]
    fn stack_size_parse_accepts_whole_kib_and_names_the_variable_otherwise() {
        use imp::parse_stack_kb;
        assert_eq!(parse_stack_kb("1024"), Ok(1024 * 1024));
        assert_eq!(parse_stack_kb("4"), Ok(16 * 1024), "floored at 16 KiB");
        assert_eq!(parse_stack_kb("17"), Ok(20 * 1024), "rounded up to pages");
        for bad in ["", "64k", " 64", "-1", "1e3", "99999999999999999999"] {
            let err = parse_stack_kb(bad).expect_err(bad);
            assert!(err.starts_with("DYNPROF_CO_STACK_KB="), "{err}");
            assert!(err.contains("whole number of KiB"), "{err}");
        }
    }

    /// Shared slots the test coroutine and the test thread bounce
    /// through. Heap-allocated so raw pointers into it stay valid across
    /// switches; single-threaded by construction. The coroutine's own
    /// save slot lives here too, so the boot closure can be built before
    /// the coroutine it will run on exists.
    struct Slots {
        main_sp: *mut u8,
        co_sp: *mut u8,
        steps: usize,
    }

    #[test]
    fn coroutine_bounces_to_main_and_back() {
        let slots = Box::into_raw(Box::new(Slots {
            main_sp: core::ptr::null_mut(),
            co_sp: core::ptr::null_mut(),
            steps: 0,
        }));
        let boot: BootFn = Box::new(move || unsafe {
            (*slots).steps += 1;
            switch(&mut (*slots).co_sp, (*slots).main_sp); // yield back to main
            (*slots).steps += 1;
            FinalSwitch {
                save: &mut (*slots).co_sp,
                to: (*slots).main_sp,
            }
        });
        let boot_raw = Box::into_raw(Box::new(boot)) as *mut c_void;
        let co = RawCo::new(64 * 1024, boot_raw);
        unsafe {
            // First resume: runs the thunk, enters the boot closure.
            switch(&mut (*slots).main_sp, co.resume_sp);
            assert_eq!((*slots).steps, 1);
            // Second resume: closure finishes and jumps back for good.
            switch(&mut (*slots).main_sp, (*slots).co_sp);
            assert_eq!((*slots).steps, 2);
            drop(Box::from_raw(slots));
        }
        drop(co); // finished; unmapping its stack is safe now
    }

    /// Recurse `depth` frames, each writing `FRAME` bytes of its own.
    #[inline(never)]
    fn dig(depth: usize) -> u64 {
        const FRAME: usize = 512;
        let mut pad = [1u8; FRAME];
        std::hint::black_box(&mut pad);
        let below = if depth > 1 { dig(depth - 1) } else { 0 };
        below + u64::from(std::hint::black_box(pad)[FRAME - 1])
    }

    #[test]
    fn stack_high_water_reports_at_least_the_depth_reached() {
        struct Hop {
            main_sp: *mut u8,
            co_sp: *mut u8,
        }
        const USABLE: usize = 256 * 1024;
        // 40 frames of ≥ 512 written bytes each: five pages down.
        const DEPTH: usize = 40;
        let hop = Box::into_raw(Box::new(Hop {
            main_sp: core::ptr::null_mut(),
            co_sp: core::ptr::null_mut(),
        }));
        let boot: BootFn = Box::new(move || unsafe {
            assert_eq!(dig(DEPTH), DEPTH as u64);
            FinalSwitch {
                save: &mut (*hop).co_sp,
                to: (*hop).main_sp,
            }
        });
        let boot_raw = Box::into_raw(Box::new(boot)) as *mut c_void;
        let co = RawCo::new(USABLE, boot_raw);
        // Never run: only the fabricated 64-byte root frame is written.
        assert_eq!(co.stack_high_water(), 64);
        unsafe {
            switch(&mut (*hop).main_sp, co.resume_sp);
            drop(Box::from_raw(hop));
        }
        let deepest = co.stack_high_water();
        assert!(deepest >= DEPTH * 512, "{deepest} bytes for {DEPTH} frames");
        assert!(deepest < USABLE, "{deepest}");
        drop(co);
    }

    #[test]
    fn unwind_is_contained_by_catch_unwind_on_the_coroutine_stack() {
        struct Hop {
            main_sp: *mut u8,
            co_sp: *mut u8,
            caught: Option<u32>,
        }
        let hop = Box::into_raw(Box::new(Hop {
            main_sp: core::ptr::null_mut(),
            co_sp: core::ptr::null_mut(),
            caught: None,
        }));
        let boot: BootFn = Box::new(move || unsafe {
            let res = catch_unwind(AssertUnwindSafe(|| {
                resume_unwind(Box::new(7u32));
            }));
            (*hop).caught = res.err().and_then(|p| p.downcast::<u32>().ok()).map(|b| *b);
            FinalSwitch {
                save: &mut (*hop).co_sp,
                to: (*hop).main_sp,
            }
        });
        let boot_raw = Box::into_raw(Box::new(boot)) as *mut c_void;
        let co = RawCo::new(64 * 1024, boot_raw);
        unsafe {
            switch(&mut (*hop).main_sp, co.resume_sp);
            assert_eq!((*hop).caught, Some(7));
            drop(Box::from_raw(hop));
        }
        drop(co);
    }
}

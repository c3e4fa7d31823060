//! The coroutine carrier's machinery (see [`crate::engine::ProcBackend`]):
//! a few run stacks on which the simulated processes take turns, the
//! live frames of the processes that are not running, and the context
//! switch.
//!
//! A simulated process is a *green task*: a saved stack pointer and its
//! live frames, the bytes between that pointer and the top of its run
//! stack — one of `RUN_STACKS` (eight), chosen by its pid for life. While
//! it runs, and after it blocks until another process of the same stack
//! runs, those bytes are on the stack. Before another process runs
//! there, [`Carrier::enter`] copies them out into blocks and copies the
//! other's back in at the addresses they had, so every pointer a process
//! holds into its own frames stays valid. A parked process therefore
//! costs its live bytes (about 2 KB for a rank of the ASCI kernels), not
//! a stack of its own, a mapping and its page tables; up to eight
//! processes (an OpenMP team) keep their frames in place and copy
//! nothing. Nothing may point into *another* process's frames: they may
//! be somewhere else while it runs.
//!
//! Suspending and resuming is one direct `call` to [`switch`] — save six
//! callee-saved registers and the floating-point control words, swap
//! `rsp`, restore, `ret`. The copies cannot run on the stack they
//! overwrite: a process hands off to one on another stack by making
//! them itself, and to one on its own stack through the engine's
//! scheduler context, the thread inside `Sim::run`, on that thread's own
//! stack.
//!
//! The runtime is deliberately tiny and engine-shaped:
//!
//! * **No scheduler here.** The engine decides who runs; this module
//!   only knows how to put a process's frames on its run stack and jump
//!   between two contexts.
//! * **Single driving thread.** Every coroutine of a simulation runs on
//!   the thread inside `Sim::run`. Nothing in this module is thread-safe
//!   and nothing needs to be.
//! * **No unwinding across the boundary.** The fabricated root frame has
//!   no unwind tables; the engine wraps every process body in
//!   `catch_unwind`, and a finished body *returns* a [`FinalSwitch`] to
//!   [`dynprof_sim_co_main`], which performs the last jump only after
//!   the closure environment has been dropped — so a completed coroutine
//!   leaks nothing.
//!
//! Each run stack is `mmap`ed with a four-page `PROT_NONE` guard at the
//! low end, so an overflow faults loudly. Its usable size defaults to
//! 1 MiB and can be raised with `DYNPROF_CO_STACK_KB` for unusually deep
//! process bodies. Parked frames live in fixed 512-byte blocks that the
//! carrier maps itself, a MiB at a time, and reuses through a free list:
//! none of it is on the global heap, and a handoff allocates nothing.
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

/// The coroutine carrier could not map memory: a run stack, or a slab
/// of blocks for parked frames. Its text is one line.
#[derive(Debug)]
pub struct CarrierError {
    what: &'static str,
    bytes: usize,
    cause: std::io::Error,
}

impl CarrierError {
    /// The mapping for `what`, of `bytes`, just failed: the cause is the
    /// calling thread's last OS error.
    #[allow(dead_code)] // unsupported targets map nothing
    fn last_os_error(what: &'static str, bytes: usize) -> CarrierError {
        CarrierError {
            what,
            bytes,
            cause: std::io::Error::last_os_error(),
        }
    }
}

impl std::fmt::Display for CarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coroutine carrier: cannot map {} bytes for {}: {}",
            self.bytes, self.what, self.cause
        )
    }
}

impl std::error::Error for CarrierError {}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::{BootFn, CarrierError};
    use core::ffi::c_void;
    use core::ptr::{copy_nonoverlapping, null_mut};
    use std::sync::OnceLock;

    // Raw mmap/mprotect/munmap declarations (x86-64 Linux values): the
    // workspace vendors every dependency, so no libc crate is available.
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    /// Don't reserve swap for the mapping: pages are committed as they
    /// are first touched.
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
    /// Guard region at the low end of a run stack: four pages, so even
    /// a large spilled frame that skips the first page still faults.
    const GUARD_BYTES: usize = 4 * PAGE;
    /// Default usable bytes of a run stack (virtual; committed lazily).
    const DEFAULT_STACK_BYTES: usize = 1024 * 1024;
    /// Bytes in one block of parked frames, its link included. A parked
    /// rank's frames end within a block of their length, and a block
    /// holds whole cache lines.
    pub(super) const BLOCK: usize = 512;
    /// Frame bytes one block holds.
    const PAYLOAD: usize = BLOCK - core::mem::size_of::<*mut Block>();
    /// Blocks are mapped this many bytes at a time. A slab costs address
    /// space until its blocks are first taken, one at a time.
    const SLAB: usize = 1 << 20;

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
    // never-started coroutine: `Carrier::fabricate` builds exactly the image
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
    /// `Box<BootFn>` pointer that `Carrier::fabricate` parked in the r12
    /// slot.
    ///
    /// Runs the boot closure (which owns the process body and must catch
    /// every unwind), drops its environment, then performs the closure's
    /// returned [`FinalSwitch`] — at which point its frames own nothing and
    /// may be dropped without a copy. Reaching the end would mean a
    /// finished coroutine was resumed: abort.
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
    /// (or returned by [`Carrier::enter`]) and not resumed since; `save`
    /// must stay valid until the saved context is resumed or discarded.
    /// No references to data that another context may mutably access may
    /// be live across the call.
    pub(crate) unsafe fn switch(save: *mut *mut u8, to: *mut u8) {
        dynprof_sim_co_switch(save, to);
    }

    /// An anonymous private mapping, unmapped on drop.
    struct Mapping {
        base: *mut u8,
        len: usize,
    }

    impl Mapping {
        /// Map `len` bytes for `what`, the lowest `guard` of them
        /// inaccessible.
        fn new(len: usize, guard: usize, what: &'static str) -> Result<Mapping, CarrierError> {
            // SAFETY: a fresh anonymous mapping, and a protection change
            // within it.
            unsafe {
                let base = mmap(
                    null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1,
                    0,
                );
                if core::ptr::eq(base, usize::MAX as *mut c_void) {
                    return Err(CarrierError::last_os_error(what, len));
                }
                let map = Mapping {
                    base: base as *mut u8,
                    len,
                };
                if guard > 0 && mprotect(base, guard, PROT_NONE) != 0 {
                    return Err(CarrierError::last_os_error(what, len));
                }
                Ok(map)
            }
        }

        /// One past the highest byte; page- (hence 16-) aligned.
        fn end(&self) -> *mut u8 {
            // SAFETY: one past the end of the mapping.
            unsafe { self.base.add(self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: this mapping's own range; nothing runs on it or
            // points into it any more.
            let rc = unsafe { munmap(self.base as *mut c_void, self.len) };
            debug_assert_eq!(rc, 0, "coroutine carrier munmap failed");
        }
    }

    /// One block of a parked process's frames.
    #[repr(C)]
    struct Block {
        /// The next block of the same frames (the bytes below these), or
        /// the next free block.
        next: *mut Block,
        bytes: [u8; PAYLOAD],
    }

    /// The blocks parked frames are kept in: slabs the carrier maps
    /// itself, handed out one block at a time, and taken back onto a
    /// free list that hands them out again, last in first out.
    struct Blocks {
        free: *mut Block,
        /// The never-taken rest of the newest slab.
        fresh: *mut u8,
        fresh_end: *mut u8,
        /// Every slab, newest first, each linked through its first block.
        slabs: *mut Block,
        /// Blocks taken and not given back.
        held: usize,
    }

    impl Blocks {
        fn new() -> Blocks {
            Blocks {
                free: null_mut(),
                fresh: null_mut(),
                fresh_end: null_mut(),
                slabs: null_mut(),
                held: 0,
            }
        }

        /// A block to fill. A slab that cannot be mapped stops the run:
        /// the host is out of memory mid-run.
        fn take(&mut self) -> *mut Block {
            self.held += 1;
            // SAFETY: the free list holds only blocks of this pool's slabs
            // that were given back.
            if let Some(block) = unsafe { self.free.as_mut() } {
                self.free = block.next;
                return block;
            }
            if self.fresh == self.fresh_end {
                let slab = Mapping::new(SLAB, 0, "parked frames").unwrap_or_else(|e| panic!("{e}"));
                let link = slab.base as *mut Block;
                std::mem::forget(slab);
                // SAFETY: the new slab's first block, reserved as its link;
                // the rest is fresh.
                unsafe {
                    (*link).next = self.slabs;
                    self.slabs = link;
                    self.fresh = (link as *mut u8).add(BLOCK);
                    self.fresh_end = (link as *mut u8).add(SLAB);
                }
            }
            let block = self.fresh as *mut Block;
            // SAFETY: within the newest slab, at most at its end.
            self.fresh = unsafe { self.fresh.add(BLOCK) };
            block
        }

        /// Take `block` back.
        ///
        /// # Safety
        ///
        /// `block` came from [`Blocks::take`] and nothing reads it after.
        unsafe fn give(&mut self, block: *mut Block) {
            (*block).next = self.free;
            self.free = block;
            self.held -= 1;
        }
    }

    impl Drop for Blocks {
        fn drop(&mut self) {
            let mut slab = self.slabs;
            while !slab.is_null() {
                // SAFETY: a slab this pool mapped; its link is read before
                // the unmap.
                unsafe {
                    let next = (*slab).next;
                    drop(Mapping {
                        base: slab as *mut u8,
                        len: SLAB,
                    });
                    slab = next;
                }
            }
        }
    }

    /// A coroutine's saved context. Its live frames are the bytes from
    /// `sp` to the top of its run stack: there while it occupies that
    /// stack, in `parked` while another process does.
    pub(crate) struct Co {
        /// The stack pointer that resumes it. Valid only while it is
        /// suspended; while it runs this holds the previous save.
        pub(crate) sp: *mut u8,
        /// Its frames while parked, the highest bytes first; null while
        /// they are on its run stack.
        parked: *mut Block,
        /// The `Box<BootFn>` of a coroutine never entered; null after,
        /// when the fabricated frame (and then the coroutine) owns it.
        boot: *mut c_void,
        /// The run stack it runs on, for life: its frames hold pointers
        /// into themselves.
        home: usize,
    }

    impl Co {
        /// Process `pid`'s coroutine, whose first resume runs `boot`.
        pub(crate) fn new(pid: usize, boot: BootFn) -> Co {
            Co {
                sp: null_mut(),
                parked: null_mut(),
                boot: Box::into_raw(Box::new(boot)) as *mut c_void,
                home: pid % RUN_STACKS,
            }
        }

        /// Has it been entered (and so handed its boot closure over)?
        pub(crate) fn started(&self) -> bool {
            self.boot.is_null()
        }

        /// Do the two run on the same run stack? Only a context on
        /// another stack can put `other`'s frames in place.
        pub(crate) fn shares_stack(&self, other: &Co) -> bool {
            self.home == other.home
        }

        /// A started coroutine suspended at `sp` on run stack `home`, its
        /// frames on that stack, as a test stages one.
        ///
        /// # Safety
        ///
        /// `sp` lies on run stack `home` of the carrier it is entered on,
        /// below its top.
        #[cfg(test)]
        pub(crate) unsafe fn suspended_at(sp: *mut u8, home: usize) -> Co {
            Co {
                sp,
                parked: null_mut(),
                boot: null_mut(),
                home,
            }
        }
    }

    impl Drop for Co {
        fn drop(&mut self) {
            if !self.boot.is_null() {
                // Never entered: the boot closure (and the process body
                // inside it) is still ours to free.
                // SAFETY: made by `Co::new` and handed to nobody.
                unsafe { drop(Box::from_raw(self.boot as *mut BootFn)) };
            }
        }
    }

    /// Default MXCSR (all exceptions masked, round-to-nearest) and x87
    /// control word, in the layout [`switch`] restores: mxcsr in the low
    /// four bytes, fcw in the next two.
    const FP_DEFAULTS: u64 = 0x0000_037F_0000_1F80;

    /// Run stacks per carrier. A process runs on the one its pid selects,
    /// so up to eight processes that hand off among themselves — an
    /// OpenMP team of the paper's eight threads — keep their frames in
    /// place, and a handoff between two stacks needs no copy through the
    /// scheduler context.
    pub(crate) const RUN_STACKS: usize = 8;

    /// One run stack and the coroutine whose frames are on it: null when
    /// no live frames are (before its first entry, and once its occupant
    /// finished).
    struct RunStack {
        map: Mapping,
        occupant: *mut Co,
    }

    impl RunStack {
        /// One past the highest usable byte.
        fn top(&self) -> *mut u8 {
            self.map.end()
        }
    }

    /// The run stacks, the blocks of the frames parked off them, and which
    /// coroutine's frames are on each.
    pub(crate) struct Carrier {
        stacks: Vec<RunStack>,
        blocks: Blocks,
    }

    impl Carrier {
        /// A carrier whose run stacks have `usable` bytes above their
        /// guards.
        pub(crate) fn new(usable: usize) -> Result<Carrier, CarrierError> {
            let what = "a run stack";
            let len = usable
                .checked_add(GUARD_BYTES)
                .ok_or_else(|| CarrierError {
                    what,
                    bytes: usable,
                    cause: std::io::ErrorKind::OutOfMemory.into(),
                })?;
            let stacks = (0..RUN_STACKS)
                .map(|_| {
                    Ok(RunStack {
                        map: Mapping::new(len, GUARD_BYTES, what)?,
                        occupant: null_mut(),
                    })
                })
                .collect::<Result<_, CarrierError>>()?;
            Ok(Carrier {
                stacks,
                blocks: Blocks::new(),
            })
        }

        /// One past the highest usable byte of run stack `home`.
        #[cfg(test)]
        pub(crate) fn top(&self, home: usize) -> *mut u8 {
            self.stacks[home].top()
        }

        /// Put `co`'s frames on its run stack — parking the occupant's
        /// first, unless they are `co`'s already — and return the stack
        /// pointer that resumes it.
        ///
        /// # Safety
        ///
        /// Not called from `co`'s run stack, which it overwrites. `co` and
        /// that stack's occupant are live contexts, suspended.
        pub(crate) unsafe fn enter(&mut self, co: *mut Co) -> *mut u8 {
            let Carrier { stacks, blocks } = self;
            let stack = &mut stacks[(*co).home];
            let top = stack.top();
            if stack.occupant != co {
                if let Some(out) = stack.occupant.as_mut() {
                    blocks.park(top, out);
                }
                blocks.restore(top, &mut *co);
                stack.occupant = co;
            }
            (*co).sp
        }

        /// `co` has finished: its frames are dead, and the next entry to
        /// its run stack copies nothing out.
        pub(crate) fn vacate(&mut self, co: &Co) {
            let stack = &mut self.stacks[co.home];
            if core::ptr::eq(stack.occupant, co) {
                stack.occupant = null_mut();
            }
        }

        /// Blocks holding parked frames now: none once every coroutine
        /// has finished.
        pub(crate) fn blocks_held(&self) -> usize {
            self.blocks.held
        }

        /// Deepest any run stack has ever been written, in bytes below
        /// its top. A mapping starts zeroed and is committed lazily, so
        /// the answer is the lowest non-zero byte of the lowest resident
        /// page (`mincore`): one syscall and at most one page read a
        /// stack, and no page is touched that was not resident already.
        /// A frame that reserved space without writing it does not count
        /// — what is measured is what costs memory.
        pub(crate) fn high_water(&self) -> usize {
            let depth = |stack: &RunStack| {
                let usable = stack.map.len - GUARD_BYTES;
                let mut resident = vec![0u8; usable / PAGE];
                // SAFETY: `low..low + usable` is the stack's readable
                // mapping (everything above the guard), page-aligned, and
                // `resident` has one byte per page of it, as `mincore`
                // asks. The one page read is resident, hence mapped and
                // written.
                unsafe {
                    let low = stack.map.base.add(GUARD_BYTES);
                    let rc = mincore(low as *mut c_void, usable, resident.as_mut_ptr());
                    assert_eq!(rc, 0, "coroutine run stack mincore failed");
                    let Some(page) = resident.iter().position(|r| r & 1 != 0) else {
                        return 0;
                    };
                    let page = std::slice::from_raw_parts(low.add(page * PAGE), PAGE);
                    let clean = page.iter().take_while(|&&b| b == 0).count();
                    stack.top() as usize - (page.as_ptr() as usize + clean)
                }
            };
            self.stacks.iter().map(depth).max().unwrap_or(0)
        }
    }

    impl Blocks {
        /// Copy `co`'s frames off the run stack whose top is `top` into
        /// blocks, the highest bytes first.
        unsafe fn park(&mut self, top: *mut u8, co: &mut Co) {
            debug_assert!(co.parked.is_null(), "frames parked twice");
            let mut end = top;
            let mut link: *mut *mut Block = &mut co.parked;
            while end > co.sp {
                let n = (end as usize - co.sp as usize).min(PAYLOAD);
                let block = self.take();
                copy_nonoverlapping(end.sub(n), (*block).bytes.as_mut_ptr(), n);
                *link = block;
                link = &mut (*block).next;
                end = end.sub(n);
            }
            *link = null_mut();
        }

        /// Copy `co`'s parked frames back to where they were below `top`
        /// and take their blocks back — or, for a coroutine never entered,
        /// write its fabricated first frame.
        unsafe fn restore(&mut self, top: *mut u8, co: &mut Co) {
            if !co.boot.is_null() {
                co.sp = fabricate(top, co.boot);
                co.boot = null_mut();
                return;
            }
            let mut end = top;
            let mut block = std::mem::replace(&mut co.parked, null_mut());
            while !block.is_null() {
                let n = (end as usize - co.sp as usize).min(PAYLOAD);
                copy_nonoverlapping((*block).bytes.as_ptr(), end.sub(n), n);
                let next = (*block).next;
                self.give(block);
                block = next;
                end = end.sub(n);
            }
        }
    }

    /// Write the suspended-context image described at the `global_asm!`
    /// block below `top`, for a first resume that runs the boot closure
    /// behind `boot`; return its stack pointer.
    unsafe fn fabricate(top: *mut u8, boot: *mut c_void) -> *mut u8 {
        let slot = |off: usize| top.sub(off) as *mut u64;
        let entry: unsafe extern "C" fn() = dynprof_sim_co_entry;
        *slot(8) = entry as *const () as u64; // return address
        *slot(16) = 0; // rbp
        *slot(24) = 0; // rbx
        *slot(32) = boot as u64; // r12: boot pointer
        *slot(40) = 0; // r13
        *slot(48) = 0; // r14
        *slot(56) = 0; // r15
        *slot(64) = FP_DEFAULTS;
        top.sub(64)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    //! Stub for unsupported targets: [`super::supported`] is `false`, so
    //! the engine never constructs a carrier here; every entry point is
    //! an unreachable placeholder that keeps the crate compiling.
    use super::{BootFn, CarrierError};

    pub(crate) fn stack_bytes() -> usize {
        unreachable!("coroutine backend unsupported on this target")
    }

    pub(crate) unsafe fn switch(_save: *mut *mut u8, _to: *mut u8) {
        unreachable!("coroutine backend unsupported on this target")
    }

    pub(crate) struct Co {
        pub(crate) sp: *mut u8,
    }

    impl Co {
        pub(crate) fn new(_pid: usize, _boot: BootFn) -> Co {
            unreachable!("coroutine backend unsupported on this target")
        }

        pub(crate) fn started(&self) -> bool {
            unreachable!("coroutine backend unsupported on this target")
        }

        pub(crate) fn shares_stack(&self, _other: &Co) -> bool {
            unreachable!("coroutine backend unsupported on this target")
        }
    }

    pub(crate) struct Carrier;

    impl Carrier {
        pub(crate) fn new(_usable: usize) -> Result<Carrier, CarrierError> {
            unreachable!("coroutine backend unsupported on this target")
        }

        pub(crate) unsafe fn enter(&mut self, _co: *mut Co) -> *mut u8 {
            unreachable!("coroutine backend unsupported on this target")
        }

        pub(crate) fn vacate(&mut self, _co: &Co) {
            unreachable!("coroutine backend unsupported on this target")
        }

        pub(crate) fn blocks_held(&self) -> usize {
            unreachable!("coroutine backend unsupported on this target")
        }

        pub(crate) fn high_water(&self) -> usize {
            unreachable!("coroutine backend unsupported on this target")
        }
    }
}

pub(crate) use imp::{stack_bytes, switch, Carrier, Co};

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Frame bytes one block holds (`imp`'s `PAYLOAD`).
    const PAYLOAD: usize = imp::BLOCK - 8;

    /// Three suspended coroutines take turns on a run stack, each
    /// writing its own frames: one a whole number of blocks deep, one
    /// not, one shallower than a block. Each comes back byte for byte
    /// where it was, and a finished occupant is dropped without a copy.
    #[test]
    fn a_parked_frame_comes_back_where_it_was() {
        let mut carrier = Carrier::new(64 * 1024).unwrap();
        let top = carrier.top(0);
        let depths = [3 * PAYLOAD, 2 * PAYLOAD + 123, 40];
        let frame = |i: usize, d: usize| -> Vec<u8> {
            (0..d).map(|k| (i * 89 + k * 7 + 1) as u8).collect()
        };
        let mut cos: Vec<Box<Co>> = depths
            .iter()
            .map(|&d| Box::new(unsafe { Co::suspended_at(top.sub(d), 0) }))
            .collect();
        let on_stack = |d: usize| unsafe { std::slice::from_raw_parts(top.sub(d), d).to_vec() };
        unsafe {
            for (i, &d) in depths.iter().enumerate() {
                assert_eq!(carrier.enter(&mut *cos[i]), top.sub(d));
                std::ptr::copy_nonoverlapping(frame(i, d).as_ptr(), top.sub(d), d);
            }
            // Two parked: three blocks and three.
            assert_eq!(carrier.blocks_held(), 6);
            for (i, &d) in depths.iter().enumerate() {
                carrier.enter(&mut *cos[i]);
                assert_eq!(on_stack(d), frame(i, d), "coroutine {i}, {d} bytes deep");
            }
            // The last occupant finishes; the next entry parks nothing.
            carrier.vacate(&cos[2]);
            carrier.enter(&mut *cos[0]);
            assert_eq!(on_stack(depths[0]), frame(0, depths[0]));
            assert_eq!(carrier.blocks_held(), 3, "only the second is parked");
            carrier.vacate(&cos[0]);
            carrier.enter(&mut *cos[1]);
            assert_eq!(on_stack(depths[1]), frame(1, depths[1]));
        }
        assert_eq!(carrier.blocks_held(), 0);
        cos.clear();
    }

    #[test]
    fn a_run_stack_too_large_to_map_is_a_typed_error() {
        let err = Carrier::new(usize::MAX / 2).err().expect("no such mapping");
        let text = err.to_string();
        assert!(
            text.starts_with("coroutine carrier: cannot map ") && text.contains("a run stack"),
            "{text}"
        );
        assert!(!text.contains('\n'), "{text}");
    }

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
    /// switches; single-threaded by construction. The coroutine's
    /// context is reached through here too, so the boot closure can be
    /// built before the coroutine it will run on exists.
    struct Slots {
        main_sp: *mut u8,
        co: *mut Co,
        steps: usize,
        caught: Option<u32>,
    }

    /// Run `body` as a coroutine on a fresh carrier of `usable` bytes;
    /// `body` may switch back to the test thread through the slots,
    /// which `main` then resumes. Returns the carrier, for its readings.
    fn on_a_carrier(
        usable: usize,
        body: impl FnOnce(*mut Slots) + 'static,
        main: impl FnOnce(&mut Carrier, *mut Slots),
    ) -> Carrier {
        let slots = Box::into_raw(Box::new(Slots {
            main_sp: core::ptr::null_mut(),
            co: core::ptr::null_mut(),
            steps: 0,
            caught: None,
        }));
        let boot: BootFn = Box::new(move || unsafe {
            body(slots);
            FinalSwitch {
                save: &mut (*(*slots).co).sp,
                to: (*slots).main_sp,
            }
        });
        let co = Box::into_raw(Box::new(Co::new(0, boot)));
        let mut carrier = Carrier::new(usable).unwrap();
        unsafe {
            (*slots).co = co;
            switch(&mut (*slots).main_sp, carrier.enter(co));
            main(&mut carrier, slots);
            carrier.vacate(&*co);
            drop(Box::from_raw(co));
            drop(Box::from_raw(slots));
        }
        carrier
    }

    #[test]
    fn coroutine_bounces_to_main_and_back() {
        on_a_carrier(
            64 * 1024,
            |slots| unsafe {
                (*slots).steps += 1;
                switch(&mut (*(*slots).co).sp, (*slots).main_sp); // yield back to main
                (*slots).steps += 1;
            },
            |carrier, slots| unsafe {
                // First resume ran the thunk and entered the boot closure.
                assert_eq!((*slots).steps, 1);
                // Second resume: the closure finishes and jumps back for
                // good. Its frames never left the run stack.
                switch(&mut (*slots).main_sp, carrier.enter((*slots).co));
                assert_eq!((*slots).steps, 2);
                assert_eq!(carrier.blocks_held(), 0);
            },
        );
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
        const USABLE: usize = 256 * 1024;
        // 40 frames of ≥ 512 written bytes each: five pages down.
        const DEPTH: usize = 40;
        assert_eq!(
            Carrier::new(USABLE).unwrap().high_water(),
            0,
            "never entered"
        );
        let carrier = on_a_carrier(USABLE, |_| assert_eq!(dig(DEPTH), DEPTH as u64), |_, _| {});
        let deepest = carrier.high_water();
        assert!(deepest >= DEPTH * 512, "{deepest} bytes for {DEPTH} frames");
        assert!(deepest < USABLE, "{deepest}");
    }

    #[test]
    fn unwind_is_contained_by_catch_unwind_on_the_coroutine_stack() {
        on_a_carrier(
            64 * 1024,
            |slots| unsafe {
                let res = catch_unwind(AssertUnwindSafe(|| {
                    resume_unwind(Box::new(7u32));
                }));
                (*slots).caught = res.err().and_then(|p| p.downcast::<u32>().ok()).map(|b| *b);
            },
            |_, slots| unsafe { assert_eq!((*slots).caught, Some(7)) },
        );
    }
}

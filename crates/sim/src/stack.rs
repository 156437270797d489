//! Fiber stacks and the switch between them: all of this crate's `unsafe`
//! code. A fiber runs on its own `mmap`'d [`Stack`], and [`switch`] resumes
//! another context without entering the kernel, so a simulation runs on the
//! OS thread that called `Sim::run`. Only x86-64 Linux has a switch so far.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("treaty-sim has no fiber context switch (`treaty_sim_switch`) for this target");

use std::ffi::{c_int, c_void};
use std::ptr::NonNull;

/// Reserved per stack, guard page included: the default thread stack size.
const STACK_BYTES: usize = 2 << 20;
const PAGE: usize = 4096;
/// What a pooled stack keeps resident, as glibc keeps `PTHREAD_STACK_MIN`
/// of a cached thread stack and gives the rest back to the kernel.
const KEEP_RESIDENT: usize = 16 << 10;
/// At most 256 KiB resident, below 19 × 16 KiB in glibc's 40 MiB cache.
const POOL_CAP: usize = 16;
const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 0x3;
const MAP_PRIVATE_ANONYMOUS_STACK: c_int = 0x02 | 0x20 | 0x20000;
const MADV_DONTNEED: c_int = 4;
const MADV_NOHUGEPAGE: c_int = 15;

extern "C" {
    fn mmap(p: *mut c_void, n: usize, prot: c_int, flags: c_int, fd: c_int, o: i64) -> *mut c_void;
    fn mprotect(p: *mut c_void, n: usize, prot: c_int) -> c_int;
    fn madvise(p: *mut c_void, n: usize, advice: c_int) -> c_int;
    fn munmap(p: *mut c_void, n: usize) -> c_int;
    fn treaty_sim_switch(to: usize) -> usize;
    fn treaty_sim_start();
}

// `treaty_sim_switch(to) -> from` pushes the callee-saved registers, swaps
// stacks (the old `rsp` becomes the other side's `from`), pops the other
// context's registers and returns there. A fresh stack "returns" into
// `treaty_sim_start`, body in `r12`, which ends the chain for unwinders.
std::arch::global_asm!(
    "
    .globl treaty_sim_switch
treaty_sim_switch:
    push rbp; push rbx; push r12; push r13; push r14; push r15
    mov rax, rsp
    mov rsp, rdi
    pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp
    ret
    .globl treaty_sim_start
treaty_sim_start:
    .cfi_startproc; .cfi_undefined rip
    mov rdi, rax; mov rsi, r12
    call {entry}; ud2
    .cfi_endproc
    ",
    entry = sym entry,
);

/// Runs once on a fresh stack: gets who switched to it, returns where to go.
pub(crate) type Body = Box<dyn FnOnce(Suspended) -> Suspended>;

/// Where a context that is not running resumes: a stack pointer saved by
/// [`switch`], or a fresh stack's first frame. Consumed by switching to it.
#[must_use]
pub(crate) struct Suspended(usize);

/// Saves the running context and resumes `to`. Returns, once some context
/// switches back here, where that context stopped.
pub(crate) fn switch(to: Suspended) -> Suspended {
    // SAFETY: a `Suspended` comes only from `prepare` or a switch, so `to` is
    // laid out for `treaty_sim_switch` to pop; the runtime frees a stack only
    // once its fiber left it for good. Callee-saved registers are preserved.
    Suspended(unsafe { treaty_sim_switch(to.0) })
}

extern "C" fn entry(from: usize, body: *mut Body) -> ! {
    // SAFETY: `body` is the pointer `prepare` leaked, and a stack's first
    // frame is resumed once.
    let body = *unsafe { Box::from_raw(body) };
    // The body returns, dropping its captures, before the last switch.
    let to = body(Suspended(from));
    let _ = switch(to);
    std::process::abort()
}

/// An `mmap`'d fiber stack with a `PROT_NONE` guard page at its low end.
pub(crate) struct Stack(NonNull<u8>);

impl Stack {
    fn map() -> Stack {
        let (rw, flags) = (PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS_STACK);
        // SAFETY: a fresh anonymous mapping aliases nothing.
        unsafe {
            let p = mmap(std::ptr::null_mut(), STACK_BYTES, rw, flags, -1, 0);
            assert!(p as isize != -1, "mmap of a fiber stack failed");
            assert_eq!(mprotect(p, PAGE, PROT_NONE), 0, "fiber stack guard page");
            madvise(p, STACK_BYTES, MADV_NOHUGEPAGE); // advisory
            Stack(NonNull::new(p.cast()).expect("mmap never maps page 0"))
        }
    }

    /// Lays out the stack so that the first [`switch`] to it runs `body`.
    pub(crate) fn prepare(&self, body: Body) -> Suspended {
        let body = Box::into_raw(Box::new(body)) as usize;
        // Popped: r15 r14 r13 r12 rbx rbp, then `ret` into the trampoline,
        // which then calls `entry` with `rsp` 16-byte aligned.
        let sp = self.0.as_ptr() as usize + STACK_BYTES - 72;
        let start = treaty_sim_start as *const () as usize;
        // SAFETY: the seven words lie in this stack's writable top page,
        // and no context runs on the stack while it is prepared.
        unsafe { (sp as *mut [usize; 7]).write([0, 0, 0, body, 0, 0, start]) };
        Suspended(sp)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours and nothing runs on it any more.
        unsafe { munmap(self.0.as_ptr().cast(), STACK_BYTES) };
    }
}

/// Finished fibers' stacks, kept for later spawns; counts every mapping.
#[derive(Default)]
pub(crate) struct StackPool {
    free: Vec<Stack>,
    pub(crate) mapped: u64,
}

impl StackPool {
    pub(crate) fn take(&mut self) -> Stack {
        self.free.pop().unwrap_or_else(|| {
            self.mapped += 1;
            Stack::map()
        })
    }

    /// Takes back a stack nothing runs on: pooled with all but its top
    /// given back to the kernel, or unmapped once the pool is full.
    pub(crate) fn give(&mut self, stack: Stack) {
        if self.free.len() < POOL_CAP {
            let len = STACK_BYTES - PAGE - KEEP_RESIDENT;
            // SAFETY: the range is in the mapping, and nothing on it is live.
            unsafe { madvise(stack.0.as_ptr().add(PAGE).cast(), len, MADV_DONTNEED) };
            self.free.push(stack);
        }
    }
}

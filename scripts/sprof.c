/* sprof.c — an LD_PRELOAD sampling profiler for hosts without perf.
 *
 *   gcc -O2 -shared -fPIC -o sprof.so scripts/sprof.c
 *   LD_PRELOAD=./sprof.so SPROF_OUT=run/s SPROF_HZ=250 SPROF_FRAMES=1 dynprof ...
 *   python3 scripts/sprof_sym.py --self self.txt --inclusive incl.txt run/s.*
 *
 * A constructor arms setitimer(ITIMER_PROF); the SIGPROF handler stores the
 * interrupted PC — and, with SPROF_FRAMES=1 in a binary built with frame
 * pointers (-C force-frame-pointers=yes), up to 12 return addresses — into a
 * fixed ring. Nothing is allocated and nothing but async-signal-safe calls
 * is made in the handler; a frame is read with process_vm_readv on our own
 * pid, so a register that is not a frame pointer ends the walk with EFAULT
 * instead of a fault. At exit the ring and the executable (`r-xp`) lines of
 * /proc/self/maps are written to "$SPROF_OUT.<pid>".
 *
 * What it cannot do: a simulated process runs on a coroutine stack whose
 * bottom frame is `dynprof_sim_co_entry`, so an unwind from inside one ends
 * there — the engine's run loop above it is not in the sample. Samples past
 * the ring's capacity are counted as dropped, not recorded. Runs can only be
 * merged by address when ASLR is off (`setarch -R`); sprof_sym.py symbolises
 * each dump against its own maps, so it does not need that.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 12
#define MAX_SAMPLES (1u << 16)

static uintptr_t ring[MAX_SAMPLES][MAX_FRAMES];
static volatile uint32_t taken;
static volatile uint32_t dropped;
static int walk_frames;
static pid_t self_pid;
static char alt_stack[64 * 1024];

/* [saved frame pointer, return address] at `fp`, or 0 on a bad pointer. */
static int read_frame(uintptr_t fp, uintptr_t out[2]) {
    struct iovec local = {out, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self_pid, &local, 1, &remote, 1, 0) == (ssize_t)local.iov_len;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    uint32_t slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        errno = saved_errno;
        return;
    }
    ucontext_t *uc = (ucontext_t *)ctx;
    uintptr_t pc, fp;
#if defined(__x86_64__)
    pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    pc = (uintptr_t)uc->uc_mcontext.pc;
    fp = (uintptr_t)uc->uc_mcontext.regs[29];
#else
#error "sprof: unsupported architecture"
#endif
    uintptr_t *frames = ring[slot];
    frames[0] = pc;
    int n = 1;
    while (walk_frames && n < MAX_FRAMES && fp != 0 && (fp & 7) == 0) {
        uintptr_t frame[2];
        if (!read_frame(fp, frame) || frame[1] == 0)
            break;
        frames[n++] = frame[1];
        if (frame[0] <= fp) /* stacks grow down: a caller's frame is above */
            break;
        fp = frame[0];
    }
    if (n < MAX_FRAMES)
        frames[n] = 0;
    errno = saved_errno;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *prefix = getenv("SPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "sprof", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    uint32_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "sprof 1 samples=%u dropped=%u frames=%d\n", n, dropped, walk_frames);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            if (strstr(line, " r-xp "))
                fprintf(out, "map %s", line);
        fclose(maps);
    }
    for (uint32_t i = 0; i < n; i++) {
        fputs("s", out);
        for (int f = 0; f < MAX_FRAMES && ring[i][f]; f++)
            fprintf(out, " %lx", (unsigned long)ring[i][f]);
        fputs("\n", out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    const char *hz_env = getenv("SPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 250;
    if (hz <= 0 || hz > 10000)
        hz = 250;
    const char *frames_env = getenv("SPROF_FRAMES");
    walk_frames = frames_env && frames_env[0] == '1';
    self_pid = getpid();

    /* Simulated processes run on small coroutine stacks: take the signal
     * on a stack of our own. (Threads other than the first take it on
     * theirs, which are full-sized.) */
    stack_t ss = {.ss_sp = alt_stack, .ss_size = sizeof alt_stack, .ss_flags = 0};
    sigaltstack(&ss, NULL);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    atexit(dump);
    struct itimerval tick = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

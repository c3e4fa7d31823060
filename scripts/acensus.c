/* acensus.c — an LD_PRELOAD heap census for hosts without heaptrack.
 *
 *   gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o acensus.so scripts/acensus.c
 *   LD_PRELOAD=./acensus.so ACENSUS_OUT=run/c dynprof ...
 *   python3 scripts/sprof_sym.py --census run/c.<pid at N ranks> run/c.<pid at 2N ranks>
 *
 * Every malloc, calloc, realloc, posix_memalign, aligned_alloc and memalign
 * is recorded with its requested size and the call stack that made it: up to
 * 12 return addresses read off the frame-pointer chain, so the binary should
 * be built with frame pointers (-C force-frame-pointers=yes). Each stack keeps
 * the bytes it holds live. When the process's live heap passes its peak by
 * ACENSUS_STEP bytes (default 16384) every stack's live bytes are copied
 * aside, so the copy is the heap within one step of its peak. At exit the
 * copy, the peak and the executable (`r-xp`) lines of /proc/self/maps are
 * written to "$ACENSUS_OUT.<pid>", one `c <bytes> <blocks> <pc>...` line per
 * stack that held anything then.
 *
 * Nothing is allocated from the heap it watches: the tables are mapped once,
 * the real allocator is glibc's `__libc_*` entry points, and a thread-local
 * flag lets the census's own calls (the dump's stdio) through untracked. A
 * frame is read with process_vm_readv on our own pid, so a register that is
 * not a frame pointer ends the walk with EFAULT instead of a fault; that is a
 * system call per frame, and a census runs several times slower than the
 * program. A simulated process runs on a coroutine stack whose bottom frame
 * is `dynprof_sim_co_entry`, so its stacks end there. Memory the program maps
 * itself (coroutine stacks) is not heap and is not counted; an allocation
 * past the tables' capacity is counted as dropped.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/uio.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define MAX_FRAMES 12
#define STACK_SLOTS (1u << 16)
#define LIVE_SLOTS (1u << 21)
#define SIZE_BITS 40

struct stack {
    uint64_t hash;
    uintptr_t frames[MAX_FRAMES];
    int64_t live, snap;
    int64_t blocks, snap_blocks;
};

/* One live allocation: its address, and its size and stack packed. */
struct block {
    uintptr_t ptr;
    uint64_t size_stack;
};

static struct stack *stacks;
static uint32_t *used; /* the stack slots in use, in first-use order */
static uint32_t n_used;
static struct block *live;
static int64_t heap, peak, snapped;
static int64_t step = 16384;
static uint64_t allocs, dropped;
static volatile char lock;
static pid_t self_pid;
static __thread int busy __attribute__((tls_model("initial-exec")));

static void take(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
}

static void give(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

static uint64_t mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

/* [saved frame pointer, return address] at `fp`, or 0 on a bad pointer. */
static int read_frame(uintptr_t fp, uintptr_t out[2]) {
    struct iovec local = {out, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self_pid, &local, 1, &remote, 1, 0) == (ssize_t)local.iov_len;
}

/* The return addresses above this call, outermost last: the first one or two
 * are in this library, and the symboliser passes over them. */
static __attribute__((noinline)) int walk(uintptr_t frames[MAX_FRAMES]) {
    uintptr_t fp = (uintptr_t)__builtin_frame_address(0);
    int n = 0;
    while (n < MAX_FRAMES && fp != 0 && (fp & 7) == 0) {
        uintptr_t frame[2];
        if (!read_frame(fp, frame) || frame[1] == 0)
            break;
        frames[n++] = frame[1];
        if (frame[0] <= fp) /* stacks grow down: a caller's frame is above */
            break;
        fp = frame[0];
    }
    for (int i = n; i < MAX_FRAMES; i++)
        frames[i] = 0;
    return n;
}

/* The slot of the stack `frames`, made at its first use; the lock is held. */
static int64_t stack_of(const uintptr_t frames[MAX_FRAMES]) {
    uint64_t h = 0;
    for (int i = 0; i < MAX_FRAMES; i++)
        h = mix(h ^ frames[i]);
    h |= 1;
    for (uint32_t i = (uint32_t)h & (STACK_SLOTS - 1), probes = 0; probes < STACK_SLOTS;
         i = (i + 1) & (STACK_SLOTS - 1), probes++) {
        struct stack *s = &stacks[i];
        if (s->hash == 0) {
            s->hash = h;
            memcpy(s->frames, frames, sizeof s->frames);
            used[n_used++] = i;
            return i;
        }
        if (s->hash == h && memcmp(s->frames, frames, sizeof s->frames) == 0)
            return i;
    }
    return -1;
}

/* Copy every stack's live bytes aside: the heap is at a new peak. */
static void snapshot(void) {
    for (uint32_t k = 0; k < n_used; k++) {
        struct stack *s = &stacks[used[k]];
        s->snap = s->live;
        s->snap_blocks = s->blocks;
    }
    snapped = heap;
}

static void note_alloc(void *ptr, size_t size) {
    if (!ptr || busy || !live)
        return;
    busy = 1;
    uintptr_t frames[MAX_FRAMES];
    walk(frames);
    take();
    allocs++;
    int64_t s = stack_of(frames);
    uint32_t i = (uint32_t)mix((uintptr_t)ptr) & (LIVE_SLOTS - 1), probes = 0;
    while (live[i].ptr != 0 && probes < LIVE_SLOTS / 2) {
        i = (i + 1) & (LIVE_SLOTS - 1);
        probes++;
    }
    if (s < 0 || live[i].ptr != 0 || size >> SIZE_BITS) {
        dropped++;
    } else {
        live[i].ptr = (uintptr_t)ptr;
        live[i].size_stack = (uint64_t)size | (uint64_t)s << SIZE_BITS;
        stacks[s].live += size;
        stacks[s].blocks++;
        heap += size;
        if (heap > peak) {
            peak = heap;
            if (peak >= snapped + step)
                snapshot();
        }
    }
    give();
    busy = 0;
}

/* Forget `ptr`, closing the gap it leaves in its probe run. */
static void note_free(void *ptr) {
    if (!ptr || busy || !live)
        return;
    take();
    uint32_t i = (uint32_t)mix((uintptr_t)ptr) & (LIVE_SLOTS - 1);
    while (live[i].ptr != 0 && live[i].ptr != (uintptr_t)ptr)
        i = (i + 1) & (LIVE_SLOTS - 1);
    if (live[i].ptr != 0) {
        uint64_t size = live[i].size_stack & ((1ull << SIZE_BITS) - 1);
        struct stack *s = &stacks[live[i].size_stack >> SIZE_BITS];
        s->live -= size;
        s->blocks--;
        heap -= size;
        live[i].ptr = 0;
        for (uint32_t j = (i + 1) & (LIVE_SLOTS - 1); live[j].ptr != 0; j = (j + 1) & (LIVE_SLOTS - 1)) {
            uint32_t home = (uint32_t)mix(live[j].ptr) & (LIVE_SLOTS - 1);
            /* Move j into the hole at i unless its home lies in (i, j]. */
            int stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
            if (!stays) {
                live[i] = live[j];
                live[j].ptr = 0;
                i = j;
            }
        }
    }
    give();
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    note_alloc(p, size);
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    note_alloc(p, n * size);
    return p;
}

void *realloc(void *old, size_t size) {
    void *p = __libc_realloc(old, size);
    if (p || size == 0)
        note_free(old);
    note_alloc(p, size);
    return p;
}

void free(void *ptr) {
    note_free(ptr);
    __libc_free(ptr);
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    note_alloc(p, size);
    return p;
}

void *aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

int posix_memalign(void **out, size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    if (!p)
        return ENOMEM;
    note_alloc(p, size);
    *out = p;
    return 0;
}

static void dump(void) {
    busy = 1;
    const char *prefix = getenv("ACENSUS_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "acensus", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    take();
    fprintf(out, "acensus 1 peak=%lld snapshot=%lld step=%lld allocs=%llu dropped=%llu stacks=%u\n",
            (long long)peak, (long long)snapped, (long long)step, (unsigned long long)allocs,
            (unsigned long long)dropped, n_used);
    FILE *cmd = fopen("/proc/self/cmdline", "r");
    if (cmd) {
        fputs("cmd", out);
        char arg[4096];
        size_t n = fread(arg, 1, sizeof arg - 1, cmd);
        arg[n] = 0;
        for (size_t at = 0; at < n; at += strlen(arg + at) + 1)
            fprintf(out, " %s", arg + at);
        fputs("\n", out);
        fclose(cmd);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            if (strstr(line, " r-xp "))
                fprintf(out, "map %s", line);
        fclose(maps);
    }
    for (uint32_t k = 0; k < n_used; k++) {
        struct stack *s = &stacks[used[k]];
        if (s->snap <= 0)
            continue;
        fprintf(out, "c %lld %lld", (long long)s->snap, (long long)s->snap_blocks);
        for (int f = 0; f < MAX_FRAMES && s->frames[f]; f++)
            fprintf(out, " %lx", (unsigned long)s->frames[f]);
        fputs("\n", out);
    }
    give();
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    busy = 1;
    self_pid = getpid();
    const char *step_env = getenv("ACENSUS_STEP");
    if (step_env && atoll(step_env) > 0)
        step = atoll(step_env);
    size_t tables = STACK_SLOTS * sizeof(struct stack) + STACK_SLOTS * sizeof(uint32_t) +
                    LIVE_SLOTS * sizeof(struct block);
    char *map = mmap(NULL, tables, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map != MAP_FAILED) {
        stacks = (struct stack *)map;
        used = (uint32_t *)(map + STACK_SLOTS * sizeof(struct stack));
        live = (struct block *)(map + STACK_SLOTS * sizeof(struct stack) + STACK_SLOTS * sizeof(uint32_t));
        atexit(dump);
    }
    busy = 0;
}

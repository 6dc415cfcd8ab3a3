/*
 * A sampling profiler as an LD_PRELOAD shim: an ITIMER_PROF timer raises
 * SIGPROF every 1 ms of process CPU time (the kernel's timer tick may
 * stretch that, e.g. to 4 ms at 250 Hz), and the handler
 * records the interrupted program counter plus the backtrace() of the
 * frames above it into a preallocated buffer. At exit the shim writes,
 * to the file named by SIGPROF_OUT:
 *
 *   M <index> <path>                   one line per loaded module
 *   S <index>:<hex vaddr> ...          one line per sample, leaf first
 *
 * Each address is a module-relative ELF vaddr (runtime address minus the
 * module's load bias), ready for `addr2line -e <path>`; the frames above
 * the leaf are return addresses minus one, so they resolve to the call.
 * scripts/profile.sh builds this file, runs a program under it and
 * aggregates the result.
 *
 * Build: cc -O2 -fPIC -shared -o libsigprof.so sigprof.c
 * Env:   SIGPROF_OUT, the output path; without it the shim does nothing.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define INTERVAL_US 1000
/* Samples kept; later ones are counted as dropped. */
#define CAPACITY 262144
#define MAX_DEPTH 64
/* One record: depth, then up to MAX_DEPTH addresses, leaf first. */
#define RECORD (MAX_DEPTH + 1)

static uintptr_t *samples;
static size_t taken;
static size_t dropped;
static const char *out_path;

static void on_prof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    size_t slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= CAPACITY) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    uintptr_t pc = (uintptr_t)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    void *frames[MAX_DEPTH + 3];
    int n = backtrace(frames, MAX_DEPTH + 3);
    /* frames[] starts in this handler and the signal trampoline; the
     * interrupted frame is the one whose address is `pc`. */
    int start = n;
    for (int i = 0; i < n; i++) {
        if ((uintptr_t)frames[i] == pc) {
            start = i + 1;
            break;
        }
    }
    uintptr_t *rec = samples + slot * RECORD;
    size_t depth = 0;
    rec[1 + depth++] = pc;
    for (int i = start; i < n && depth < MAX_DEPTH; i++) {
        rec[1 + depth++] = (uintptr_t)frames[i] - 1;
    }
    rec[0] = depth;
}

struct module {
    uintptr_t bias, lo, hi;
    char path[4096];
};
static struct module modules[256];
static int module_count;

static int collect_module(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    (void)data;
    if (module_count == (int)(sizeof modules / sizeof modules[0])) {
        return 1;
    }
    struct module *m = &modules[module_count];
    m->bias = info->dlpi_addr;
    m->lo = UINTPTR_MAX;
    m->hi = 0;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD) {
            continue;
        }
        uintptr_t lo = m->bias + ph->p_vaddr;
        if (lo < m->lo) {
            m->lo = lo;
        }
        if (lo + ph->p_memsz > m->hi) {
            m->hi = lo + ph->p_memsz;
        }
    }
    if (info->dlpi_name && info->dlpi_name[0]) {
        snprintf(m->path, sizeof m->path, "%s", info->dlpi_name);
    } else if (module_count == 0) {
        /* The main program is listed first, without a name. */
        ssize_t len = readlink("/proc/self/exe", m->path, sizeof m->path - 1);
        m->path[len > 0 ? len : 0] = '\0';
    } else {
        m->path[0] = '\0';
    }
    module_count++;
    return 0;
}

__attribute__((destructor)) static void sigprof_stop(void)
{
    if (!samples) {
        return;
    }
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    FILE *out = fopen(out_path, "w");
    if (!out) {
        perror("sigprof: SIGPROF_OUT");
        return;
    }
    dl_iterate_phdr(collect_module, NULL);
    for (int i = 0; i < module_count; i++) {
        if (modules[i].path[0]) {
            fprintf(out, "M %d %s\n", i, modules[i].path);
        }
    }
    size_t n = taken < CAPACITY ? taken : CAPACITY;
    for (size_t s = 0; s < n; s++) {
        const uintptr_t *rec = samples + s * RECORD;
        fputc('S', out);
        for (size_t d = 0; d < rec[0]; d++) {
            uintptr_t a = rec[1 + d];
            int found = -1;
            for (int i = 0; i < module_count; i++) {
                if (modules[i].path[0] && a >= modules[i].lo && a < modules[i].hi) {
                    found = i;
                    break;
                }
            }
            if (found < 0) {
                fputs(" ?", out);
            } else {
                fprintf(out, " %d:%lx", found, (unsigned long)(a - modules[found].bias));
            }
        }
        fputc('\n', out);
    }
    fclose(out);
    if (dropped) {
        fprintf(stderr, "sigprof: buffer full, %zu samples dropped\n", dropped);
    }
}

__attribute__((constructor)) static void sigprof_start(void)
{
    out_path = getenv("SIGPROF_OUT");
    if (!out_path || !out_path[0]) {
        return;
    }
    /* Untouched pages cost no resident memory until a sample lands. */
    void *buf = mmap(NULL, (size_t)CAPACITY * RECORD * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        perror("sigprof: mmap");
        return;
    }
    samples = buf;
    /* backtrace() loads the unwinder on first use; do that here, not in
     * the signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0) {
        perror("sigprof: sigaction");
        samples = NULL;
        return;
    }
    struct itimerval every;
    every.it_interval.tv_sec = 0;
    every.it_interval.tv_usec = INTERVAL_US;
    every.it_value = every.it_interval;
    if (setitimer(ITIMER_PROF, &every, NULL) != 0) {
        perror("sigprof: setitimer");
        samples = NULL;
    }
}

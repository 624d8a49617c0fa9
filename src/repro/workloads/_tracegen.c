/* Per-op draw loop of repro.workloads.synthetic.SyntheticApp.
 *
 * tracegen_fill() writes the next n ops (gap, addr, is_write) of one
 * application's reference stream: plain-instruction gaps, miss bursts,
 * strided array streams that reseat after a run, random chase misses, and
 * the L2-resident and hot sets (see synthetic.py's module docstring).
 * Every draw goes through numpy's own distribution functions on the
 * Generator's bit generator, in the order and with the arguments
 * Generator.geometric, .random and .integers would use, so the stream is
 * bit-identical to drawing op by op in Python; tests/test_tracegen.py
 * keeps that Python loop as the reference.  Build without -ffast-math:
 * burst_start_p + l2_frac must round as Python rounds it.
 *
 * tracegen.py declares app_t again as a ctypes Structure. */

#include <stdbool.h>
#include <stdint.h>

#include "numpy/random/distributions.h"

typedef struct {
    double gap_p;         /* geometric p of the gap before an op */
    double burst_start_p; /* a roll below this starts a miss burst */
    double burst_len_p;   /* geometric p of a burst's length */
    double l2_frac;       /* share of rolls that hit the L2-resident set */
    double seq_frac;      /* share of misses that step an array stream */
    double store_frac;
    int64_t base_addr, line_bytes;
    int64_t hot_base, hot_lines, l2_base, l2_lines; /* in lines */
    int64_t chase_base, chase_lines;
    int64_t stream_base, stream_regions, stream_run, stride, n_streams;
    int64_t stream_idx, burst_left;
    int64_t *streams; /* n_streams pairs: next line, steps left */
} app_t;

/* Generator.integers(0, n); n == 1 draws nothing. */
static int64_t below(bitgen_t *bg, int64_t n)
{
    uint64_t v;
    random_bounded_uint64_fill(bg, 0, (uint64_t)(n - 1), 1, false, &v);
    return (int64_t)v;
}

/* Point one stream at a fresh region.  The sub-stride offset picks the
 * (channel, bank) it lives in; without it every stream would start at
 * line 0 of its region and alias onto channel 0 / bank 0. */
static void reseat(app_t *a, bitgen_t *bg, int64_t *s)
{
    int64_t region = below(bg, a->stream_regions);
    int64_t span = a->stride < a->stream_run ? a->stride : a->stream_run;
    int64_t steps = a->stream_run / a->stride;
    s[0] = a->stream_base + region * a->stream_run + below(bg, span);
    s[1] = steps > 1 ? steps : 1;
}

void tracegen_seat(app_t *a, bitgen_t *bg)
{
    for (int64_t i = 0; i < a->n_streams; i++)
        reseat(a, bg, a->streams + 2 * i);
}

/* A line expected to miss the L2: the next step of the round-robin
 * stream, or a random chase line. */
static int64_t miss_line(app_t *a, bitgen_t *bg)
{
    if (random_standard_uniform(bg) < a->seq_frac) {
        int64_t *s = a->streams + 2 * a->stream_idx;
        int64_t line;
        a->stream_idx = (a->stream_idx + 1) % a->n_streams;
        if (s[1] <= 0)
            reseat(a, bg, s);
        line = s[0];
        s[0] += a->stride;
        s[1] -= 1;
        return line;
    }
    return a->chase_base + below(bg, a->chase_lines);
}

void tracegen_fill(app_t *a, bitgen_t *bg, int64_t n, int64_t *gap,
                   int64_t *addr, bool *is_write)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t line;
        if (a->burst_left > 0) {
            /* Inside a miss burst: gaps of mean 1 keep the misses in one
             * ROB window, so they overlap. */
            a->burst_left -= 1;
            gap[i] = random_geometric(bg, 0.5) - 1;
            line = miss_line(a, bg);
        } else {
            double roll;
            gap[i] = random_geometric(bg, a->gap_p) - 1;
            roll = random_standard_uniform(bg);
            if (roll < a->burst_start_p) {
                /* This op is the first miss of a new burst. */
                a->burst_left = random_geometric(bg, a->burst_len_p) - 1;
                line = miss_line(a, bg);
            } else if (roll < a->burst_start_p + a->l2_frac) {
                line = a->l2_base + below(bg, a->l2_lines);
            } else {
                line = a->hot_base + below(bg, a->hot_lines);
            }
        }
        addr[i] = a->base_addr + line * a->line_bytes;
        is_write[i] = random_standard_uniform(bg) < a->store_frac;
    }
}

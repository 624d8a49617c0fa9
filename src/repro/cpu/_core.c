/* The simulator's model kernel: the synthetic traces' draw loop, the
 * core model, the memory side, the event loop and the scheduling
 * policies' selection rules.
 *
 * Six types, each the base of (or, for MemoryRequest and TraceStream, the
 * whole of) a Python class that validates and binds:
 *
 *   MemoryRequest     one line read or write between the L2 and DRAM
 *                     (repro.controller.request)
 *   EngineKernel      EventEngine's heap, per-channel decision slots and
 *                     completion lanes, and its run loop (repro.sim.engine)
 *   ControllerKernel  FastMemoryController's enqueue, scheduling point with
 *                     its DDR2 timing and the policy's selection rule,
 *                     and delivery (repro.controller)
 *   HierarchyKernel   CacheHierarchy's miss path past the L2, fill path and
 *                     structural-stall wake-ups (repro.cache.hierarchy)
 *   TraceStream       one application's reference stream: its draw loop,
 *                     through numpy's own distribution functions, and the
 *                     ops it holds, a recording or a window
 *                     (repro.workloads.synthetic)
 *   CoreKernel        TraceCore's fetch with the L1/L2 hit paths, commit
 *                     and callbacks (repro.cpu.core_model)
 *
 * The state the model touches on every access is typed storage that the
 * Python objects own and the kernel writes in place: each cache's flat
 * block of tags and dirty flags (plus the L2's owner column), each MSHR
 * file's entry table, and the int64 counters and per-core and per-bank
 * vectors of the queues, channels, stats objects and hierarchy (all
 * array('q') or array('B'), see repro.util.counters).  At _bind the
 * kernel takes a buffer export of each array and keeps it until dealloc
 * (an exported array refuses to resize, so the storage cannot move), so
 * Python reads the same names and gets the same ints, during a run and
 * after the machine closes.  A trace's ops are the exception: a
 * recording's columns move as its readers grow them, so a core reads
 * them through the stream (see take_op).
 * The selection rules the built-in policies name (oldest, hit-first
 * oldest, the highest-priority core, round-robin) run here on the
 * candidate array; their inputs (priority rows, the rotation pointer)
 * are pinned at _bind like the rest.
 * What stays Python is reached through calls: a policy that selects in
 * Python (select_read or select_write, looked up on the policy at every
 * decision when it is not the base method that runs the rule), the
 * write-drain transition, the writeback path, the dram.observers
 * subscribers and the span collector.
 *
 * Calls between components go through the callables each Python class
 * hands to its _bind() (a read's on_complete, a waiter, a heap event's
 * fn).  Each entry one kernel object calls on another (a core's _wake,
 * _on_unblock, _on_load_ready and _store_data_cb, the hierarchy's
 * _after_l2_miss, _fill_l1, _on_fill and _on_space_freed, the
 * controller's enqueue, _fast_point and _fast_deliver) has a C body that
 * takes C ints, and its Python method only parses its arguments and runs
 * it.  Where the callable held is that entry of a kernel object (see
 * own()), the caller runs the body directly; any other callable, such as
 * a method a wrap or a subclass replaced before the machine was built, is
 * called through Python with the same arguments.  So instrumentation
 * that wraps a method by name before a machine is built sees every call
 * (tests/test_golden_calls.py).
 *
 * Time is counted in slots in the core: issue_width slots per cycle (see
 * core_model.py).  All ints are int64; an address or cycle beyond that
 * raises OverflowError on the way in. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#include "numpy/random/distributions.h"

/* ready cycle of a load still waiting on memory; an empty decision slot */
#define NEVER ((int64_t)1 << 62)
/* CacheHierarchy._after_l2_miss results (hierarchy.py) */
#define PENDING (-1)
#define BLOCKED (-2)
#define MERGED (-3)

/* Slot indices of the Counters subclasses' FIELDS: keep each list in the
 * order of its class's FIELDS tuple. */
enum { C_HITS, C_MISSES, C_EVICTIONS, C_DIRTY_EVICTIONS, C_FILLS,
       C_NFIELDS };                                  /* CacheStats */
enum { K_LOADS, K_STORES, K_L1_HITS, K_L2_HITS, K_MEM_REQUESTS, K_STALLS,
       K_NFIELDS };                                  /* CoreStats */
enum { M_OCCUPANCY, M_PEAK, M_MERGES, M_ALLOCATIONS, M_NFIELDS }; /* MshrFile */
enum { Q_OCCUPANCY, Q_NEXT_SEQ, Q_NFIELDS };         /* RequestQueues */
enum { S_READ_ROW_HITS, S_DRAIN_ENTRIES, S_NFIELDS }; /* ControllerStats */
enum { CH_BUS_FREE, CH_BUSY_UNTIL, CH_TRANSACTIONS, CH_WRITES,
       CH_DATA_CYCLES, CH_ACT_COUNT, CH_NFIELDS };   /* Channel */

static PyObject *s_stats, *s_c, *s_tags, *s_dirty, *s_count, *s_off_bits,
    *s_set_mask, *s_assoc, *s_lines, *s_stores, *s_capacity,
    *s_line_mask,
    *s_l1_hit_latency, *s_l2_hit_latency, *s_on_merge,
    *s_inflight, *s_completed, *s_max_spans, *s_dropped, *s_first_attempt,
    *s_sample_every, *s_read, *s_channel, *s_bank, *s_row, *s_observers, *s_now,
    *s_hits_prefiltered, *s_select_read, *s_select_write,
    *s_update_drain_mode, *s_arrival, *s_pick, *s_track,
    *s_controller_track, *s_bank_start, *s_cas, *s_data_start,
    *s_data_end, *s_done, *s_row_hit, *s_conflict,
    *s_channels, *s_mapper, *s_ch_bits, *s_bank_bits, *s_col_bits,
    *s_timing, *s_t_rp,
    *s_t_rcd, *s_t_cl, *s_t_burst, *s_t_wr, *s_t_rrd, *s_t_faw,
    *s_reads, *s_writes, *s_reads_by_ch, *s_writes_by_ch,
    *s_pending_reads, *s_pending_writes, *s_read_count,
    *s_read_latency_sum, *s_read_latency_max, *s_bytes_read,
    *s_bytes_written, *s_write_count, *s_ready, *s_open_row, *s_hits,
    *s_acts, *s_confs, *s_act_cycles, *s_num_banks, *s_stamps, *s_read_rule,
    *s_write_rule, *s_rank_kind, *s_rank_depth, *s_rank, *s_rotor,
    *s_num_cores, *s_rng, *s_queues, *s_is_row_hit, *s_acquire, *s_release,
    *kw_timing;
static PyObject *PastEventError;
/* repro.dram.address.DramCoord, imported at the first coordinate read */
static PyObject *coord_cls;
/* repro.telemetry.spans.RequestSpan, imported at the first sampled read */
static PyObject *span_cls;

/* The object types, defined below; their entries call each other. */
typedef struct Engine Engine;
typedef struct Ctrl Ctrl;
typedef struct Hier Hier;
typedef struct Core Core;

/* -- helpers ------------------------------------------------------------ */

static int as_i64(PyObject *v, int64_t *out)
{
    long long x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

static int attr_i64(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    int rc;
    if (v == NULL)
        return -1;
    rc = as_i64(v, out);
    Py_DECREF(v);
    return rc;
}

static int set_attr_i64(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* list.remove(item) for items equal only to themselves */
static int remove_item(PyObject *list, PyObject *item)
{
    Py_ssize_t i, n = PyList_GET_SIZE(list);
    for (i = 0; i < n; i++)
        if (PyList_GET_ITEM(list, i) == item)
            return PyList_SetSlice(list, i, i + 1, NULL);
    PyErr_SetString(PyExc_ValueError, "list.remove(x): x not in list");
    return -1;
}

static int get_list(PyObject *obj, PyObject *name, PyObject **out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    if (!PyList_CheckExact(v)) {
        PyErr_Format(PyExc_TypeError, "%U must be a list", name);
        Py_DECREF(v);
        return -1;
    }
    *out = v;
    return 0;
}

static int index_error(const char *what)
{
    PyErr_Format(PyExc_IndexError, "%s out of range", what);
    return -1;
}

/* -- typed storage -------------------------------------------------------- */

/* The buffer exports a kernel object holds from _bind to dealloc. */
typedef struct {
    Py_buffer *v;
    Py_ssize_t n;
} Pins;

/* Export obj.name (obj itself when name is NULL): a writable buffer of
 * items of itemsize bytes, at least min_items of them.  The export joins
 * pins; returns its base address, or NULL with an exception. */
static void *pin(Pins *p, PyObject *obj, PyObject *name, Py_ssize_t itemsize,
                 Py_ssize_t min_items)
{
    PyObject *a;
    Py_buffer view, *grown;
    int rc;
    if (name != NULL) {
        if ((a = PyObject_GetAttr(obj, name)) == NULL)
            return NULL;
    } else {
        a = obj;
        Py_INCREF(a);
    }
    rc = PyObject_GetBuffer(a, &view, PyBUF_WRITABLE);
    Py_DECREF(a);
    if (rc < 0)
        return NULL;
    if (view.itemsize != itemsize || view.len < min_items * itemsize) {
        PyErr_Format(PyExc_TypeError,
                     "%R must hold at least %zd items of %zd bytes",
                     name != NULL ? name : obj, min_items, itemsize);
        PyBuffer_Release(&view);
        return NULL;
    }
    grown = PyMem_Realloc(p->v, (p->n + 1) * sizeof(Py_buffer));
    if (grown == NULL) {
        PyBuffer_Release(&view);
        PyErr_NoMemory();
        return NULL;
    }
    p->v = grown;
    p->v[p->n++] = view;
    return view.buf;
}

/* A Counters object's slots (its _c array). */
static int64_t *pin_counters(Pins *p, PyObject *obj, Py_ssize_t nfields)
{
    return pin(p, obj, s_c, sizeof(int64_t), nfields);
}

static void unpin(Pins *p)
{
    while (p->n)
        PyBuffer_Release(&p->v[--p->n]);
    PyMem_Free(p->v);
    p->v = NULL;
}

/* -- caches ---------------------------------------------------------------- */

/* One SetAssocCache's block: set s holds count[s] lines in slots
 * s * assoc .. s * assoc + count[s] - 1, LRU first.  owner is the L2's
 * owner column (CacheHierarchy._owner), NULL for an L1. */
typedef struct {
    int64_t *tags, *count, *stats, *owner;
    unsigned char *dirty;
    int64_t off, mask, assoc;
} Cache;

/* A line a fill evicted: its tag, dirty flag and owner. */
typedef struct {
    int64_t tag, owner;
    int dirty;
} Victim;

static int cache_bind(Cache *k, Pins *p, PyObject *cache)
{
    PyObject *stats;
    int64_t ways;
    if (attr_i64(cache, s_off_bits, &k->off) < 0
        || attr_i64(cache, s_set_mask, &k->mask) < 0
        || attr_i64(cache, s_assoc, &k->assoc) < 0)
        return -1;
    if (k->mask < 0 || k->assoc < 1 || k->off < 0 || k->off > 62) {
        PyErr_SetString(PyExc_ValueError, "bad cache geometry");
        return -1;
    }
    ways = (k->mask + 1) * k->assoc;
    if ((k->tags = pin(p, cache, s_tags, 8, ways)) == NULL
        || (k->dirty = pin(p, cache, s_dirty, 1, ways)) == NULL
        || (k->count = pin(p, cache, s_count, 8, k->mask + 1)) == NULL
        || (stats = PyObject_GetAttr(cache, s_stats)) == NULL)
        return -1;
    k->stats = pin_counters(p, stats, C_NFIELDS);
    Py_DECREF(stats);
    return k->stats != NULL ? 0 : -1;
}

/* The way of tag in its set (from LRU, 0), or -1; *base is the set's
 * first slot. */
static int64_t cache_way(const Cache *k, int64_t tag, int64_t *base)
{
    int64_t set = tag & k->mask, n = k->count[set], i;
    const int64_t *t = k->tags + set * k->assoc;
    *base = set * k->assoc;
    for (i = 0; i < n; i++)
        if (t[i] == tag)
            return i;
    return -1;
}

/* Slots i + 1 .. n - 1 of the set at base move down one (slot i goes). */
static void close_gap(Cache *k, int64_t base, int64_t i, int64_t n)
{
    size_t m = (size_t)(n - 1 - i);
    memmove(k->tags + base + i, k->tags + base + i + 1, m * sizeof(int64_t));
    memmove(k->dirty + base + i, k->dirty + base + i + 1, m);
    if (k->owner != NULL)
        memmove(k->owner + base + i, k->owner + base + i + 1,
                m * sizeof(int64_t));
}

/* Put a line in slot n - 1, the MRU end, of the set at base. */
static void put_mru(Cache *k, int64_t base, int64_t n, int64_t tag, int dirty,
                    int64_t owner)
{
    k->tags[base + n - 1] = tag;
    k->dirty[base + n - 1] = (unsigned char)dirty;
    if (k->owner != NULL)
        k->owner[base + n - 1] = owner;
}

/* Way i of a full-length set of n lines moves to the MRU end. */
static void to_mru(Cache *k, int64_t base, int64_t i, int64_t n)
{
    int64_t tag, owner;
    int dirty;
    if (i == n - 1)
        return;
    tag = k->tags[base + i];
    owner = k->owner != NULL ? k->owner[base + i] : 0;
    dirty = k->dirty[base + i];
    close_gap(k, base, i, n);
    put_mru(k, base, n, tag, dirty, owner);
}

/* A demand probe: a resident line moves to MRU, and a store dirties it.
 * 1 on a hit, 0 on a miss (the set unchanged). */
static int cache_touch(Cache *k, int64_t tag, int store)
{
    int64_t base, i = cache_way(k, tag, &base), n;
    if (i < 0)
        return 0;
    n = k->count[tag & k->mask];
    to_mru(k, base, i, n);
    if (store)
        k->dirty[base + n - 1] = 1;
    return 1;
}

/* A fill: a resident line moves to MRU, its dirty flag ORed with dirty
 * when or_dirty (an L1) and kept otherwise (the L2); an absent one
 * evicts the LRU line of a full set into *v and goes in at MRU with dirty.
 * The owner column, when there is one, takes owner either way.  1 with a
 * victim, 0 without. */
static int cache_install(Cache *k, int64_t tag, int dirty, int or_dirty,
                         int64_t owner, Victim *v)
{
    int64_t set = tag & k->mask, base, n = k->count[set];
    int64_t i = cache_way(k, tag, &base);
    int evicted = 0;
    if (i >= 0) {
        to_mru(k, base, i, n);
        if (or_dirty && dirty)
            k->dirty[base + n - 1] = 1;
        if (k->owner != NULL)
            k->owner[base + n - 1] = owner;
    } else {
        if (n >= k->assoc) {
            v->tag = k->tags[base];
            v->dirty = k->dirty[base];
            v->owner = k->owner != NULL ? k->owner[base] : 0;
            close_gap(k, base, 0, n);
            n--;
            k->stats[C_EVICTIONS]++;
            if (v->dirty)
                k->stats[C_DIRTY_EVICTIONS]++;
            evicted = 1;
        }
        k->count[set] = ++n;
        put_mru(k, base, n, tag, dirty, owner);
        k->stats[C_FILLS]++;
    }
    return evicted;
}

/* Dirty a resident line in place, its LRU position unchanged (a dirty L1
 * victim merging into the L2).  1 if resident, 0 if not. */
static int cache_set_dirty(Cache *k, int64_t tag)
{
    int64_t base, i = cache_way(k, tag, &base);
    if (i < 0)
        return 0;
    k->dirty[base + i] = 1;
    return 1;
}

/* Drop a resident line, closing the gap; its dirty flag to *dirty.  1 if
 * it was resident, 0 if not. */
static int cache_invalidate(Cache *k, int64_t tag, int *dirty)
{
    int64_t set = tag & k->mask, base, i = cache_way(k, tag, &base);
    if (i < 0)
        return 0;
    *dirty = k->dirty[base + i];
    close_gap(k, base, i, k->count[set]);
    k->count[set]--;
    return 1;
}

/* -- span collectors --------------------------------------------------------- */

enum { SP_OFFERED, SP_COUNT, SP_NFIELDS };          /* SpanCollector */

/* A span collector as the core and hierarchy kernels see it: its offer
 * counters and per-core stall stamps ((cycle, line) pairs, line -1 for
 * none), exported when the collector is attached. */
typedef struct {
    PyObject *obj;      /* the SpanCollector, or NULL */
    PyObject *inflight; /* its _inflight dict */
    int64_t *c, *stamps, every, ncores;
    Pins pins;
} SpanView;

static PyObject *spans_get(SpanView *s)
{
    PyObject *v = s->obj != NULL ? s->obj : Py_None;
    Py_INCREF(v);
    return v;
}

/* Attach collector v (None detaches). */
static int spans_set(SpanView *s, PyObject *v)
{
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete spans");
        return -1;
    }
    unpin(&s->pins);
    s->c = s->stamps = NULL;
    s->ncores = 0;
    Py_CLEAR(s->obj);
    Py_CLEAR(s->inflight);
    if (v == Py_None)
        return 0;
    if (attr_i64(v, s_sample_every, &s->every) < 0
        || (s->c = pin_counters(&s->pins, v, SP_NFIELDS)) == NULL
        || (s->stamps = pin(&s->pins, v, s_stamps, 8, 0)) == NULL
        || (s->inflight = PyObject_GetAttr(v, s_inflight)) == NULL
        || !PyDict_CheckExact(s->inflight)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_inflight must be a dict");
        unpin(&s->pins);
        s->c = s->stamps = NULL;
        Py_CLEAR(s->inflight);
        return -1;
    }
    s->ncores = s->pins.v[s->pins.n - 1].len / 16;
    Py_INCREF(v);
    s->obj = v;
    return 0;
}

/* -- calls ------------------------------------------------------------------ */

static int truthy(PyObject *v)
{
    return v == Py_True ? 1 : v == Py_False ? 0 : PyObject_IsTrue(v);
}

static int call_drop(PyObject *result)
{
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int closed(const char *what)
{
    PyErr_Format(PyExc_RuntimeError, "the %s is closed", what);
    return -1;
}

/* A kernel entry as its method table holds it. */
#define ENTRY(f) ((PyCFunction)(void (*)(void))(f))

/* The kernel object fn is bound to, when fn is that object's own entry
 * meth: a builtin method, which only looking meth up on an instance of
 * the entry's type makes.  NULL for any other callable (a wrap, an
 * override, a Python function), which the caller calls through Python. */
static PyObject *own(PyObject *fn, PyCFunction meth)
{
    if (fn != NULL && Py_IS_TYPE(fn, &PyCFunction_Type)
        && PyCFunction_GET_FUNCTION(fn) == meth)
        return PyCFunction_GET_SELF(fn);
    return NULL;
}

/* now as a Python int, boxed at most once into *box, which owns it (NULL
 * with an exception). */
static PyObject *boxed(PyObject **box, int64_t now)
{
    if (*box == NULL)
        *box = PyLong_FromLongLong(now);
    return *box;
}

/* fn(now) */
static int call_now(PyObject *fn, PyObject *now)
{
    PyObject *r;
    if (now == NULL)
        return -1;
    Py_INCREF(fn);
    r = PyObject_CallOneArg(fn, now);
    Py_DECREF(fn);
    return call_drop(r);
}

/* A one-shot waiter.  A kernel entry is the object it runs on, so
 * registering it makes no Python object: a core's load (with its ROB
 * slot), store or unblock waiter, or a hierarchy's space watch.  Any
 * other waiter is the callable, called through Python. */
enum { W_CALL, W_LOAD, W_STORE, W_UNBLOCK, W_SPACE };

typedef struct {
    PyObject *obj; /* owned: the core or hierarchy, or the callable */
    int64_t slot;  /* W_LOAD: the ROB slot */
    int kind;
} Waiter;

/* Waiters in registration order. */
typedef struct {
    Waiter *v;
    Py_ssize_t n, cap;
} WaitList;

static int waits_add(WaitList *l, PyObject *obj, int kind, int64_t slot)
{
    Waiter *w;
    if (l->n == l->cap) {
        Py_ssize_t cap = l->cap ? 2 * l->cap : 8;
        Waiter *v = PyMem_Realloc(l->v, cap * sizeof(Waiter));
        if (v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        l->v = v;
        l->cap = cap;
    }
    w = &l->v[l->n++];
    Py_INCREF(obj);
    w->obj = obj;
    w->kind = kind;
    w->slot = slot;
    return 0;
}

/* Drop every waiter, keeping the buffer. */
static void waits_drop(WaitList *l)
{
    while (l->n)
        Py_DECREF(l->v[--l->n].obj);
}

static void waits_free(WaitList *l)
{
    waits_drop(l);
    PyMem_Free(l->v);
    l->v = NULL;
    l->cap = 0;
}

static int waits_traverse(const WaitList *l, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < l->n; i++)
        Py_VISIT(l->v[i].obj);
    return 0;
}

/* A fan-out's waiter list.  Each round fires the live list, detached
 * first so that a callback that registers lands in the next round; the
 * round's buffer becomes the spare the next round's list takes, so a
 * steady state allocates nothing. */
typedef struct {
    WaitList live, spare;
} FanOut;

static int core_unblock_at(Core *c, int64_t now);
static int hier_space_at(Hier *h, int64_t now);
static PyObject *core_on_unblock(Core *c, PyObject *const *args,
                                 Py_ssize_t nargs);
static PyObject *hier_on_space_freed(Hier *h, PyObject *arg);

/* Register fn(now) for the next round: a kernel core's own _on_unblock
 * or a hierarchy's own _on_space_freed as the object it runs on. */
static int fan_out_add(FanOut *f, PyObject *fn)
{
    PyObject *k;
    if ((k = own(fn, ENTRY(core_on_unblock))) != NULL)
        return waits_add(&f->live, k, W_UNBLOCK, 0);
    if ((k = own(fn, ENTRY(hier_on_space_freed))) != NULL)
        return waits_add(&f->live, k, W_SPACE, 0);
    return waits_add(&f->live, fn, W_CALL, 0);
}

/* Fire one round in registration order; an error stops the round, whose
 * remaining waiters are dropped. */
static int fan_out(FanOut *f, int64_t now)
{
    WaitList round = f->live;
    PyObject *t = NULL;
    Py_ssize_t i;
    int rc = 0;
    if (round.n == 0)
        return 0;
    f->live = f->spare;
    f->spare.v = NULL;
    f->spare.cap = 0;
    for (i = 0; i < round.n && rc == 0; i++) {
        Waiter *w = &round.v[i];
        if (w->kind == W_UNBLOCK)
            rc = core_unblock_at((Core *)w->obj, now);
        else if (w->kind == W_SPACE)
            rc = hier_space_at((Hier *)w->obj, now);
        else
            rc = call_now(w->obj, boxed(&t, now));
    }
    Py_XDECREF(t);
    waits_drop(&round);
    if (f->spare.v == NULL)
        f->spare = round;
    else
        PyMem_Free(round.v);
    return rc;
}

static void fan_out_free(FanOut *f)
{
    waits_free(&f->live);
    waits_free(&f->spare);
}

static PyObject *done_or_null(int rc)
{
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int nargs_are(Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "expected %zd arguments, got %zd", want,
                 nargs);
    return -1;
}

#define KEEP(obj, field, value) \
    do { Py_INCREF(value); Py_XSETREF((obj)->field, value); } while (0)

/* ======================================================================
 * MemoryRequest
 * ====================================================================== */

/* channel, bank, row and col are the decoded coordinate (-1 before
 * enqueue); coord is built from them at its first read. */
typedef struct {
    PyObject_HEAD
    long long addr, core_id, arrival_cycle, seq, issue_cycle, done_cycle;
    long long channel, bank, row, col;
    char is_write, row_hit;
    PyObject *coord, *on_complete, *span;
} Request;

static PyTypeObject RequestType;

static Request *new_request(int64_t addr, int64_t core_id, int is_write,
                            int64_t arrival, PyObject *on_complete)
{
    Request *r = (Request *)RequestType.tp_alloc(&RequestType, 0);
    if (r == NULL)
        return NULL;
    r->addr = addr;
    r->core_id = core_id;
    r->is_write = (char)is_write;
    r->arrival_cycle = arrival;
    r->seq = r->issue_cycle = r->done_cycle = -1;
    r->channel = r->bank = r->row = r->col = -1;
    Py_XINCREF(on_complete);
    r->on_complete = on_complete;
    return r;
}

static int request_init(Request *r, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"addr", "core_id", "is_write", "arrival_cycle",
                             "on_complete", NULL};
    long long addr, core_id, arrival;
    int is_write;
    PyObject *done = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LLpL|O", kwlist, &addr,
                                     &core_id, &is_write, &arrival, &done))
        return -1;
    r->addr = addr;
    r->core_id = core_id;
    r->is_write = (char)is_write;
    r->arrival_cycle = arrival;
    r->seq = r->issue_cycle = r->done_cycle = -1;
    r->channel = r->bank = r->row = r->col = -1;
    r->row_hit = 0;
    KEEP(r, on_complete, done);
    Py_CLEAR(r->coord);
    Py_CLEAR(r->span);
    return 0;
}

static Request *as_request(PyObject *o)
{
    if (Py_TYPE(o) == &RequestType)
        return (Request *)o;
    PyErr_Format(PyExc_TypeError, "expected a MemoryRequest, got %.200s",
                 Py_TYPE(o)->tp_name);
    return NULL;
}

/* The request's DramCoord: the one assigned, else one built from the
 * decoded fields at the first read and kept, else None (not enqueued). */
static PyObject *request_coord(Request *r)
{
    PyObject *v[4], *mod;
    int i;
    if (r->coord == NULL && r->channel >= 0) {
        if (coord_cls == NULL) {
            if ((mod = PyImport_ImportModule("repro.dram.address")) == NULL)
                return NULL;
            coord_cls = PyObject_GetAttrString(mod, "DramCoord");
            Py_DECREF(mod);
            if (coord_cls == NULL)
                return NULL;
        }
        v[0] = PyLong_FromLongLong(r->channel);
        v[1] = PyLong_FromLongLong(r->bank);
        v[2] = PyLong_FromLongLong(r->row);
        v[3] = PyLong_FromLongLong(r->col);
        if (v[0] && v[1] && v[2] && v[3])
            r->coord = PyObject_Vectorcall(coord_cls, v, 4, NULL);
        for (i = 0; i < 4; i++)
            Py_XDECREF(v[i]);
        if (r->coord == NULL)
            return NULL;
    }
    v[0] = r->coord != NULL ? r->coord : Py_None;
    Py_INCREF(v[0]);
    return v[0];
}

static PyObject *request_get_coord(Request *r, void *Py_UNUSED(closure))
{
    return request_coord(r);
}

/* Assigning coord mirrors its bank and row into plain fields, which the
 * scheduling point's candidate scans read for every queued request. */
static int request_set_coord(Request *r, PyObject *v, void *Py_UNUSED(closure))
{
    int64_t bank, row;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete coord");
        return -1;
    }
    if (v != Py_None) {
        if (attr_i64(v, s_bank, &bank) < 0 || attr_i64(v, s_row, &row) < 0)
            return -1;
        r->bank = bank;
        r->row = row;
    }
    KEEP(r, coord, v);
    return 0;
}

static PyObject *request_get_latency(Request *r, void *Py_UNUSED(closure))
{
    if (r->done_cycle < 0) {
        PyErr_SetString(PyExc_ValueError, "request has not completed");
        return NULL;
    }
    return PyLong_FromLongLong(r->done_cycle - r->arrival_cycle);
}

static PyObject *request_repr(Request *r)
{
    char buf[160];
    snprintf(buf, sizeof buf, "MemoryRequest(%c core=%lld addr=0x%llx t=%lld)",
             r->is_write ? 'W' : 'R', r->core_id,
             (unsigned long long)r->addr, r->arrival_cycle);
    return PyUnicode_FromString(buf);
}

static int request_traverse(Request *r, visitproc visit, void *arg)
{
    Py_VISIT(r->coord);
    Py_VISIT(r->on_complete);
    Py_VISIT(r->span);
    return 0;
}

static int request_clear(Request *r)
{
    Py_CLEAR(r->coord);
    Py_CLEAR(r->on_complete);
    Py_CLEAR(r->span);
    return 0;
}

static void request_dealloc(Request *r)
{
    PyObject_GC_UnTrack(r);
    request_clear(r);
    Py_TYPE(r)->tp_free((PyObject *)r);
}

static PyGetSetDef request_getset[] = {
    {"coord", (getter)request_get_coord, (setter)request_set_coord,
     "decoded DRAM coordinate (the controller decodes at enqueue; the "
     "DramCoord is built at the first read), or None before enqueue "
     "(assigning it mirrors bank and row)", NULL},
    {"latency", (getter)request_get_latency, NULL,
     "arrival-to-data latency in cycles (valid once completed)", NULL},
    {NULL}
};

#define RMEMBER(name, type, field, doc) \
    {name, type, offsetof(Request, field), 0, doc}

static PyMemberDef request_members[] = {
    RMEMBER("addr", T_LONGLONG, addr, "line-aligned physical byte address"),
    RMEMBER("core_id", T_LONGLONG, core_id, "originating core"),
    RMEMBER("is_write", T_BOOL, is_write,
            "True for writebacks, False for line-fill reads"),
    RMEMBER("arrival_cycle", T_LONGLONG, arrival_cycle,
            "cycle the request entered the controller buffer"),
    RMEMBER("seq", T_LONGLONG, seq,
            "controller-assigned age sequence number (FCFS order)"),
    RMEMBER("bank", T_LONGLONG, bank, "coord.bank, or -1 before enqueue"),
    RMEMBER("row", T_LONGLONG, row, "coord.row, or -1 before enqueue"),
    RMEMBER("issue_cycle", T_LONGLONG, issue_cycle,
            "cycle the scheduler committed the request, or -1"),
    RMEMBER("done_cycle", T_LONGLONG, done_cycle,
            "cycle the data is delivered (reads) or written, or -1"),
    RMEMBER("row_hit", T_BOOL, row_hit, "whether the access hit the open row"),
    RMEMBER("on_complete", T_OBJECT, on_complete,
            "fn(request, done_cycle) called when read data returns, or None"),
    RMEMBER("span", T_OBJECT, span,
            "lifecycle span when the request was sampled for tracing"),
    {NULL}
};

static PyTypeObject RequestType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.controller.request.MemoryRequest",
    .tp_basicsize = sizeof(Request),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "MemoryRequest(addr, core_id, is_write, arrival_cycle, "
              "on_complete=None)\n--\n\n"
              "A line-granularity DRAM read or write.  Equal only to itself.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)request_init,
    .tp_dealloc = (destructor)request_dealloc,
    .tp_traverse = (traverseproc)request_traverse,
    .tp_clear = (inquiry)request_clear,
    .tp_repr = (reprfunc)request_repr,
    .tp_members = request_members,
    .tp_getset = request_getset,
};

/* ======================================================================
 * Selection rules
 * ====================================================================== */

/* The selection rules the built-in policies name (SchedulingPolicy's
 * read_rule and write_rule), run on an array of candidates in queue
 * order:
 *
 *   oldest            the smallest seq
 *   hit_first_oldest  the row hits if there are any, then the oldest
 *   ranked            the highest-priority core, the cores visited in the
 *                     order they first appear, a tie drawn with
 *                     ctx.rng.randint(0, k) over the k tied cores; then
 *                     that core's hit-first oldest.  One candidate is
 *                     returned at once (no priority read, no draw).
 *   rotate            round-robin: from the pointer, the first core with a
 *                     candidate, the pointer moved past it; then that
 *                     core's hit-first oldest
 *
 * The scheduling point runs them on its own candidate array with the
 * inputs it pinned at _bind; the module functions (select, oldest,
 * hit_first_oldest, select_by) run the same bodies for a Python call. */

enum { RULE_NONE, RULE_OLDEST, RULE_HIT_FIRST, RULE_RANKED, RULE_ROTATE,
       NRULES };
static const char *const rule_names[NRULES] = {
    NULL, "oldest", "hit_first_oldest", "ranked", "rotate"};

/* How the ranked rule reads the priority of a core with p pending reads
 * from the policy's _rank (rank_kind): Figure 1's per-core row of depth
 * entries indexed by min(max(p, 1), depth) - 1 (ME and FIX are rows of
 * depth 1), -p (LREQ), or _rank[core] / max(p, 1) (ME-LREQ's ideal
 * divider). */
enum { RANK_TABLE, RANK_PENDING, RANK_DIVIDE, NRANKS };
static const char *const rank_names[NRANKS] = {"table", "pending", "divide"};

/* A policy's rules and the typed inputs they read. */
typedef struct {
    int read, write, kind;
    const double *rank;     /* _rank: nrank float64s */
    int64_t nrank, depth;
    int64_t *rotor, ncores; /* rotate: _rotor[0], the next core */
} Rules;

/* The index in names of policy.attr, a str (None matches a NULL name). */
static int name_code(PyObject *policy, PyObject *attr,
                     const char *const *names, int n, int *out)
{
    PyObject *v = PyObject_GetAttr(policy, attr);
    int i;
    if (v == NULL)
        return -1;
    for (i = 0; i < n; i++)
        if (names[i] == NULL ? v == Py_None
            : PyUnicode_Check(v)
              && PyUnicode_CompareWithASCIIString(v, names[i]) == 0)
            break;
    if (i == n)
        PyErr_Format(PyExc_ValueError,
                     "%.200s.%U is %R: the kernel runs no such rule",
                     Py_TYPE(policy)->tp_name, attr, v);
    Py_DECREF(v);
    *out = i;
    return i == n ? -1 : 0;
}

/* Read policy's rules and pin the inputs they read into p. */
static int rules_load(Rules *u, PyObject *policy, Pins *p)
{
    memset(u, 0, sizeof *u);
    if (name_code(policy, s_read_rule, rule_names, NRULES, &u->read) < 0
        || name_code(policy, s_write_rule, rule_names, NRULES, &u->write) < 0)
        return -1;
    if ((u->read == RULE_RANKED || u->write == RULE_RANKED)
        && (name_code(policy, s_rank_kind, rank_names, NRANKS, &u->kind) < 0
            || attr_i64(policy, s_rank_depth, &u->depth) < 0))
        return -1;
    if ((u->read == RULE_RANKED || u->write == RULE_RANKED)
        && u->kind != RANK_PENDING) {
        if (u->depth < 1) {
            PyErr_SetString(PyExc_ValueError, "_rank_depth must be >= 1");
            return -1;
        }
        if ((u->rank = pin(p, policy, s_rank, sizeof(double), 1)) == NULL)
            return -1;
        u->nrank = p->v[p->n - 1].len / (Py_ssize_t)sizeof(double);
    }
    if ((u->read == RULE_ROTATE || u->write == RULE_ROTATE)
        && ((u->rotor = pin(p, policy, s_rotor, sizeof(int64_t), 1)) == NULL
            || attr_i64(policy, s_num_cores, &u->ncores) < 0))
        return -1;
    return 0;
}

/* Row hits first, then the oldest, among the candidates of core (of all
 * of them when any is set); hit flags the row hits, NULL when there is no
 * filter to apply. */
static Request *first_of(Request **v, const char *hit, Py_ssize_t n, int any,
                         int64_t core)
{
    Request *old = NULL, *hot = NULL;
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        Request *r = v[i];
        if (!any && r->core_id != core)
            continue;
        if (old == NULL || r->seq < old->seq)
            old = r;
        if (hit != NULL && hit[i] && (hot == NULL || r->seq < hot->seq))
            hot = r;
    }
    return hot != NULL ? hot : old;
}

/* The distinct cores of v in the order they first appear; their count. */
static Py_ssize_t cores_in_order(Request **v, Py_ssize_t n, int64_t *cores)
{
    Py_ssize_t i, j, k = 0;
    for (i = 0; i < n; i++) {
        for (j = 0; j < k && cores[j] != v[i]->core_id; j++)
            ;
        if (j == k)
            cores[k++] = v[i]->core_id;
    }
    return k;
}

/* ctx.rng.randint(0, k): which of k tied cores wins. */
static int tie_draw(PyObject *ctx, Py_ssize_t k, Py_ssize_t *out)
{
    PyObject *rng = PyObject_GetAttr(ctx, s_rng), *j;
    int64_t v;
    int rc;
    if (rng == NULL)
        return -1;
    j = PyObject_CallMethod(rng, "randint", "nn", (Py_ssize_t)0, k);
    Py_DECREF(rng);
    if (j == NULL)
        return -1;
    rc = as_i64(j, &v);
    Py_DECREF(j);
    if (rc < 0)
        return -1;
    if (v < 0 || v >= k)
        return index_error("tie-break draw");
    *out = (Py_ssize_t)v;
    return 0;
}

/* The ranked rule's priority of core with p pending reads. */
static int rank_of(const Rules *u, int64_t core, int64_t p, double *out)
{
    int64_t q = p > 1 ? p : 1;
    if (u->kind == RANK_PENDING) {
        *out = -(double)p;
        return 0;
    }
    if (core < 0 || (core + 1) * (u->kind == RANK_TABLE ? u->depth : 1)
                        > u->nrank)
        return index_error("ranked core");
    *out = u->kind == RANK_DIVIDE
        ? u->rank[core] / (double)q
        : u->rank[core * u->depth + (q < u->depth ? q : u->depth) - 1];
    return 0;
}

/* The ranked rule with the policy's own inputs: pending is the per-core
 * pending-read vector (npending cores); scratch holds 2n int64s. */
static Request *pick_ranked(const Rules *u, Request **v, const char *hit,
                            Py_ssize_t n, const int64_t *pending,
                            Py_ssize_t npending, PyObject *ctx,
                            int64_t *scratch)
{
    int64_t *cores = scratch, *tied = scratch + n;
    Py_ssize_t i, nc, k = 0, j = 0;
    double best = -INFINITY, p;
    if (n == 1)
        return v[0];
    nc = cores_in_order(v, n, cores);
    for (i = 0; i < nc; i++) {
        if (cores[i] < 0 || cores[i] >= npending) {
            index_error("request core_id");
            return NULL;
        }
        if (rank_of(u, cores[i], pending[cores[i]], &p) < 0)
            return NULL;
        if (p > best) {
            best = p;
            tied[0] = cores[i];
            k = 1;
        } else if (p == best) {
            tied[k++] = cores[i];
        }
    }
    if (k != 1 && tie_draw(ctx, k, &j) < 0)
        return NULL;
    return first_of(v, hit, n, 0, tied[j]);
}


/* bool(v), consuming the reference: 1, 0 or -1 (also for v == NULL). */
static int truthy_drop(PyObject *v)
{
    int t;
    if (v == NULL)
        return -1;
    t = truthy(v);
    Py_DECREF(v);
    return t;
}

/* The ranked rule with the priority core_priority(core) returns, compared
 * as Python compares (a policy that ranks in Python: CADS, FQ, STFM,
 * BATCH). */
static Request *pick_by(PyObject *priority, Request **v, const char *hit,
                        Py_ssize_t n, PyObject *ctx, int64_t *scratch)
{
    int64_t *cores = scratch, *tied = scratch + n;
    Py_ssize_t i, nc, k = 0, j = 0;
    PyObject *best, *p, *core;
    int gt = 0, eq = 0;
    if (n == 1)
        return v[0];
    if ((best = PyFloat_FromDouble(-INFINITY)) == NULL)
        return NULL;
    nc = cores_in_order(v, n, cores);
    for (i = 0; i < nc; i++) {
        if ((core = PyLong_FromLongLong(cores[i])) == NULL)
            goto fail;
        p = PyObject_CallOneArg(priority, core);
        Py_DECREF(core);
        /* bool(p > best), then bool(p == best), as Python's if takes them */
        if (p == NULL
            || (gt = truthy_drop(PyObject_RichCompare(p, best, Py_GT))) < 0
            || (!gt && (eq = truthy_drop(PyObject_RichCompare(p, best,
                                                              Py_EQ))) < 0)) {
            Py_XDECREF(p);
            goto fail;
        }
        if (gt) {
            Py_SETREF(best, p);
            tied[0] = cores[i];
            k = 1;
        } else {
            Py_DECREF(p);
            if (eq)
                tied[k++] = cores[i];
        }
    }
    Py_DECREF(best);
    if (k != 1 && tie_draw(ctx, k, &j) < 0)
        return NULL;
    return first_of(v, hit, n, 0, tied[j]);
fail:
    Py_DECREF(best);
    return NULL;
}

/* a mod n as Python computes it, for n > 0 */
static int64_t py_mod(int64_t a, int64_t n)
{
    int64_t m = a % n;
    return m < 0 ? m + n : m;
}

static Request *pick_rotate(const Rules *u, Request **v, const char *hit,
                            Py_ssize_t n)
{
    int64_t step, core;
    Py_ssize_t i;
    for (step = 0; step < u->ncores; step++) {
        core = py_mod(u->rotor[0] + step, u->ncores);
        for (i = 0; i < n && v[i]->core_id != core; i++)
            ;
        if (i < n) {
            u->rotor[0] = py_mod(core + 1, u->ncores);
            return first_of(v, hit, n, 0, core);
        }
    }
    PyErr_SetString(PyExc_ValueError, "no candidate of a known core");
    return NULL;
}

/* Run rule on v[0..n).  Returns a borrowed request, or NULL with an
 * exception: ValueError when there are no candidates. */
static Request *rule_pick(const Rules *u, int rule, Request **v,
                          const char *hit, Py_ssize_t n,
                          const int64_t *pending, Py_ssize_t npending,
                          PyObject *ctx, int64_t *scratch)
{
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "no candidates to select from");
        return NULL;
    }
    switch (rule) {
    case RULE_OLDEST:
        return first_of(v, NULL, n, 1, 0);
    case RULE_HIT_FIRST:
        return first_of(v, hit, n, 1, 0);
    case RULE_RANKED:
        return pick_ranked(u, v, hit, n, pending, npending, ctx, scratch);
    case RULE_ROTATE:
        return pick_rotate(u, v, hit, n);
    }
    PyErr_SetString(PyExc_NotImplementedError,
                    "the policy names no selection rule for this kind: "
                    "set read_rule/write_rule or override the method");
    return NULL;
}

/* The candidates of a call from Python: a tuple that holds them, their
 * array, and their row-hit flags (ctx.is_row_hit) when the rule filters
 * hits and ctx.hits_prefiltered is false. */
typedef struct {
    PyObject *held;
    Request **v;
    char *hit;
    int64_t *scratch;
    Py_ssize_t n;
} Direct;

static void direct_close(Direct *d)
{
    Py_CLEAR(d->held);
    PyMem_Free(d->v);
    PyMem_Free(d->hit);
    PyMem_Free(d->scratch);
}

static int direct_open(Direct *d, PyObject *candidates, PyObject *ctx,
                       int hits)
{
    Py_ssize_t i;
    int t;
    memset(d, 0, sizeof *d);
    if ((d->held = PySequence_Tuple(candidates)) == NULL)
        return -1;
    d->n = PyTuple_GET_SIZE(d->held);
    d->v = PyMem_New(Request *, d->n + 1);
    d->scratch = PyMem_New(int64_t, 2 * d->n + 1);
    if (d->v == NULL || d->scratch == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < d->n; i++)
        if ((d->v[i] = as_request(PyTuple_GET_ITEM(d->held, i))) == NULL)
            return -1;
    if (!hits || d->n < 2)
        return 0;
    if ((t = truthy_drop(PyObject_GetAttr(ctx, s_hits_prefiltered))) != 0)
        return t < 0 ? -1 : 0;
    if ((d->hit = PyMem_New(char, d->n)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < d->n; i++) {
        t = truthy_drop(PyObject_CallMethodOneArg(ctx, s_is_row_hit,
                                                  (PyObject *)d->v[i]));
        if (t < 0)
            return -1;
        d->hit[i] = (char)t;
    }
    return 0;
}

static PyObject *picked(Request *r)
{
    return r != NULL ? Py_NewRef((PyObject *)r) : NULL;
}

/* select(policy, candidates, ctx, is_write): the policy's declared rule
 * (SchedulingPolicy.select_read and select_write). */
static PyObject *mod_select(PyObject *Py_UNUSED(m), PyObject *const *args,
                            Py_ssize_t nargs)
{
    Rules u;
    Pins p = {NULL, 0};
    Direct d = {NULL, NULL, NULL, NULL, 0};
    PyObject *queues = NULL, *res = NULL;
    const int64_t *pending = NULL;
    Py_ssize_t npending = 0;
    int rule, is_write;
    if (nargs_are(nargs, 4) < 0 || (is_write = PyObject_IsTrue(args[3])) < 0
        || rules_load(&u, args[0], &p) < 0)
        goto done;
    rule = is_write ? u.write : u.read;
    if (direct_open(&d, args[1], args[2], rule != RULE_OLDEST) < 0)
        goto done;
    if (rule == RULE_RANKED && d.n > 1) {
        if ((queues = PyObject_GetAttr(args[2], s_queues)) == NULL
            || (pending = pin(&p, queues, s_pending_reads, sizeof(int64_t),
                              1)) == NULL)
            goto done;
        npending = p.v[p.n - 1].len / (Py_ssize_t)sizeof(int64_t);
    }
    res = picked(rule_pick(&u, rule, d.v, d.hit, d.n, pending, npending,
                           args[2], d.scratch));
done:
    Py_XDECREF(queues);
    direct_close(&d);
    unpin(&p);
    return res;
}

/* oldest(candidates) */
static PyObject *mod_oldest(PyObject *Py_UNUSED(m), PyObject *candidates)
{
    Rules u = {.read = RULE_OLDEST};
    Direct d;
    PyObject *res = NULL;
    if (direct_open(&d, candidates, NULL, 0) == 0)
        res = picked(rule_pick(&u, u.read, d.v, NULL, d.n, NULL, 0, NULL,
                               d.scratch));
    direct_close(&d);
    return res;
}

/* hit_first_oldest(candidates, ctx) */
static PyObject *mod_hit_first_oldest(PyObject *Py_UNUSED(m),
                                      PyObject *const *args, Py_ssize_t nargs)
{
    Rules u = {.read = RULE_HIT_FIRST};
    Direct d = {NULL, NULL, NULL, NULL, 0};
    PyObject *res = NULL;
    if (nargs_are(nargs, 2) == 0 && direct_open(&d, args[0], args[1], 1) == 0)
        res = picked(rule_pick(&u, u.read, d.v, d.hit, d.n, NULL, 0, args[1],
                               d.scratch));
    direct_close(&d);
    return res;
}

/* select_by(candidates, ctx, core_priority): the ranked rule with the
 * priority a Python callable gives each core
 * (SchedulingPolicy._select_core_then_request). */
static PyObject *mod_select_by(PyObject *Py_UNUSED(m), PyObject *const *args,
                               Py_ssize_t nargs)
{
    Direct d = {NULL, NULL, NULL, NULL, 0};
    PyObject *res = NULL;
    if (nargs_are(nargs, 3) < 0 || direct_open(&d, args[0], args[1], 1) < 0)
        goto done;
    if (d.n == 0)
        PyErr_SetString(PyExc_ValueError, "no candidates to select from");
    else
        res = picked(pick_by(args[2], d.v, d.hit, d.n, args[1], d.scratch));
done:
    direct_close(&d);
    return res;
}

static PyObject *mod_decode(PyObject *m, PyObject *const *args,
                            Py_ssize_t nargs);
static PyObject *mod_epoch(PyObject *m, PyObject *const *args,
                           Py_ssize_t nargs);

static PyMethodDef core_functions[] = {
    {"select", (PyCFunction)(void (*)(void))mod_select, METH_FASTCALL,
     "select(policy, candidates, ctx, is_write): the policy's read_rule "
     "or write_rule"},
    {"oldest", (PyCFunction)mod_oldest, METH_O,
     "oldest(candidates): the smallest seq"},
    {"hit_first_oldest", (PyCFunction)(void (*)(void))mod_hit_first_oldest,
     METH_FASTCALL,
     "hit_first_oldest(candidates, ctx): row hits first, then the oldest"},
    {"decode", (PyCFunction)(void (*)(void))mod_decode, METH_FASTCALL,
     "decode(addr, off_bits, ch_bits, bank_bits, col_bits) -> (channel, "
     "bank, row, col): a byte address's DRAM coordinate"},
    {"epoch", (PyCFunction)(void (*)(void))mod_epoch, METH_FASTCALL,
     "epoch(controller, cores, engine, prev, now, span, secs, sample_type, "
     "channel_type, core_type) -> Sample: one telemetry epoch"},
    {"select_by", (PyCFunction)(void (*)(void))mod_select_by, METH_FASTCALL,
     "select_by(candidates, ctx, core_priority): the highest-priority core "
     "(random tie-break), then its hit-first oldest"},
    {NULL}
};

/* ======================================================================
 * EngineKernel
 * ====================================================================== */

/* A heap event: fn(now, *args), or a core's own _wake (wake: fn is the
 * core, args NULL), run as its C body. */
typedef struct {
    int64_t cycle, seq;
    PyObject *fn, *args; /* args: a tuple, or NULL for fn(now) */
    int wake;
} Event;

typedef struct {
    int64_t cycle, seq;
    PyObject *req;
} Completion;

/* One channel's completion lane: a FIFO ring, sorted by construction. */
typedef struct {
    Completion *buf;
    Py_ssize_t head, len, cap;
} Lane;

struct Engine {
    PyObject_HEAD
    long long now, seq, events_processed, clamped_events;
    char strict, stop_requested;
    Event *heap;
    Py_ssize_t heap_len, heap_cap, nch;
    int64_t *dec_cycle, *dec_seq;
    Lane *lanes;
    PyObject *point_fn, *deliver_fn;
};

static PyTypeObject EngineType;

static int ev_less(const Event *a, const Event *b)
{
    return a->cycle < b->cycle || (a->cycle == b->cycle && a->seq < b->seq);
}

static int heap_push(Engine *e, int64_t cycle, PyObject *fn, PyObject *args,
                     int wake)
{
    Event ev;
    Py_ssize_t i;
    if (e->heap_len == e->heap_cap) {
        Py_ssize_t cap = e->heap_cap ? 2 * e->heap_cap : 64;
        Event *h = PyMem_Realloc(e->heap, cap * sizeof(Event));
        if (h == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        e->heap = h;
        e->heap_cap = cap;
    }
    ev.cycle = cycle;
    ev.seq = e->seq++;
    ev.fn = fn;
    ev.args = args;
    ev.wake = wake;
    Py_INCREF(fn);
    Py_XINCREF(args);
    for (i = e->heap_len++; i > 0;) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!ev_less(&ev, &e->heap[parent]))
            break;
        e->heap[i] = e->heap[parent];
        i = parent;
    }
    e->heap[i] = ev;
    return 0;
}

/* Remove the minimum; the caller owns its references. */
static Event heap_pop(Engine *e)
{
    Event top = e->heap[0], last = e->heap[--e->heap_len];
    Py_ssize_t i = 0, n = e->heap_len;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ev_less(&e->heap[child + 1], &e->heap[child]))
            child++;
        if (!ev_less(&e->heap[child], &last))
            break;
        e->heap[i] = e->heap[child];
        i = child;
    }
    if (n > 0)
        e->heap[i] = last;
    return top;
}

static int lane_push(Lane *q, int64_t cycle, int64_t seq, PyObject *req)
{
    Completion *slot;
    if (q->len == q->cap) {
        Py_ssize_t cap = q->cap ? 2 * q->cap : 16, i;
        Completion *buf = PyMem_New(Completion, cap);
        if (buf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (i = 0; i < q->len; i++)
            buf[i] = q->buf[(q->head + i) % q->cap];
        PyMem_Free(q->buf);
        q->buf = buf;
        q->head = 0;
        q->cap = cap;
    }
    slot = &q->buf[(q->head + q->len) % q->cap];
    slot->cycle = cycle;
    slot->seq = seq;
    slot->req = req;
    Py_INCREF(req);
    q->len++;
    return 0;
}

/* Pop the lane's front completion; the caller owns the reference. */
static PyObject *lane_pop(Lane *q)
{
    PyObject *req = q->buf[q->head].req;
    q->head = (q->head + 1) % q->cap;
    q->len--;
    return req;
}

static void engine_drop_events(Engine *e)
{
    Py_ssize_t i;
    while (e->heap_len) {
        Event ev = e->heap[--e->heap_len];
        Py_DECREF(ev.fn);
        Py_XDECREF(ev.args);
    }
    for (i = 0; i < e->nch; i++)
        while (e->lanes[i].len) {
            PyObject *req = lane_pop(&e->lanes[i]);
            Py_DECREF(req);
        }
}

/* Drop the completion lanes and decision slots (not the heap). */
static void engine_free_lanes(Engine *e)
{
    Py_ssize_t i;
    for (i = 0; i < e->nch; i++) {
        while (e->lanes[i].len) {
            PyObject *req = lane_pop(&e->lanes[i]);
            Py_DECREF(req);
        }
        PyMem_Free(e->lanes[i].buf);
    }
    PyMem_Free(e->lanes);
    PyMem_Free(e->dec_cycle);
    PyMem_Free(e->dec_seq);
    e->lanes = NULL;
    e->dec_cycle = e->dec_seq = NULL;
    e->nch = 0;
}

/* Arm channel ch's (single) decision slot at cycle. */
static void engine_arm(Engine *e, Py_ssize_t ch, int64_t cycle)
{
    e->dec_cycle[ch] = cycle;
    e->dec_seq[ch] = e->seq++;
}

static int engine_lane_index(Engine *e, PyObject *arg, Py_ssize_t *ch)
{
    int64_t v;
    if (as_i64(arg, &v) < 0)
        return -1;
    if (v < 0 || v >= e->nch) {
        PyErr_SetString(PyExc_IndexError, "no lane for that channel");
        return -1;
    }
    *ch = (Py_ssize_t)v;
    return 0;
}

static PyObject *core_wake(Core *c, PyObject *const *args, Py_ssize_t nargs);

/* Run fn(now, *args) at cycle (args a tuple or NULL), clamped to the
 * present and counted in clamped_events (strict mode raises instead).  A
 * core's own _wake with no args goes on the heap as the core. */
static int engine_add(Engine *e, int64_t cycle, PyObject *fn, PyObject *args)
{
    PyObject *core = args == NULL ? own(fn, ENTRY(core_wake)) : NULL;
    if (cycle <= e->now) {
        if (cycle < e->now) {
            /* Count the clamp before a strict-mode raise: the counter is
             * the record of causality violations, and an exception a
             * caller swallows must not make the run look clean. */
            e->clamped_events++;
            if (e->strict) {
                PyErr_Format(PastEventError,
                             "schedule at cycle %lld while now=%lld",
                             (long long)cycle, e->now);
                return -1;
            }
        }
        cycle = e->now;
    }
    if (core != NULL)
        return heap_push(e, cycle, core, NULL, 1);
    return heap_push(e, cycle, fn, args, 0);
}

/* schedule(cycle, fn, *args): run fn(now, *args) at cycle. */
static PyObject *engine_schedule(Engine *e, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int64_t cycle;
    PyObject *rest = NULL;
    Py_ssize_t i;
    int rc;
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(cycle, fn, *args) needs a cycle and a callable");
        return NULL;
    }
    if (as_i64(args[0], &cycle) < 0)
        return NULL;
    if (nargs > 2) {
        if ((rest = PyTuple_New(nargs - 2)) == NULL)
            return NULL;
        for (i = 2; i < nargs; i++) {
            Py_INCREF(args[i]);
            PyTuple_SET_ITEM(rest, i - 2, args[i]);
        }
    }
    rc = engine_add(e, cycle, args[1], rest);
    Py_XDECREF(rest);
    return done_or_null(rc);
}

/* kick(channel, cycle): arm channel's decision slot; the caller guarantees
 * the slot is empty and cycle >= now. */
static PyObject *engine_kick(Engine *e, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t ch;
    int64_t cycle;
    if (nargs_are(nargs, 2) < 0 || engine_lane_index(e, args[0], &ch) < 0
        || as_i64(args[1], &cycle) < 0)
        return NULL;
    engine_arm(e, ch, cycle);
    Py_RETURN_NONE;
}

/* complete(channel, cycle, req): append a completion to channel's lane. */
static PyObject *engine_complete(Engine *e, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    Py_ssize_t ch;
    int64_t cycle;
    if (nargs_are(nargs, 3) < 0 || engine_lane_index(e, args[0], &ch) < 0
        || as_i64(args[1], &cycle) < 0)
        return NULL;
    if (lane_push(&e->lanes[ch], cycle, e->seq, args[2]) < 0)
        return NULL;
    e->seq++;
    Py_RETURN_NONE;
}

/* attach_channels(num_channels, point_fn, deliver_fn) */
static PyObject *engine_attach(Engine *e, PyObject *const *args,
                               Py_ssize_t nargs)
{
    int64_t n;
    Py_ssize_t i;
    if (nargs_are(nargs, 3) < 0 || as_i64(args[0], &n) < 0)
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "num_channels must be >= 0");
        return NULL;
    }
    engine_free_lanes(e);
    e->dec_cycle = PyMem_New(int64_t, n ? n : 1);
    e->dec_seq = PyMem_New(int64_t, n ? n : 1);
    e->lanes = PyMem_New(Lane, n ? n : 1);
    if (e->dec_cycle == NULL || e->dec_seq == NULL || e->lanes == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < n; i++) {
        e->dec_cycle[i] = e->dec_seq[i] = NEVER;
        e->lanes[i].buf = NULL;
        e->lanes[i].head = e->lanes[i].len = e->lanes[i].cap = 0;
    }
    e->nch = (Py_ssize_t)n;
    KEEP(e, point_fn, args[1]);
    KEEP(e, deliver_fn, args[2]);
    Py_RETURN_NONE;
}

static PyObject *call_event(PyObject *fn, PyObject *now, PyObject *args)
{
    PyObject *stack[8], **argv = stack, *r;
    Py_ssize_t n = args != NULL ? PyTuple_GET_SIZE(args) : 0, i;
    if (n == 0)
        return PyObject_CallOneArg(fn, now);
    if (n + 1 > 8 && (argv = PyMem_New(PyObject *, n + 1)) == NULL)
        return PyErr_NoMemory();
    argv[0] = now;
    for (i = 0; i < n; i++)
        argv[i + 1] = PyTuple_GET_ITEM(args, i);
    r = PyObject_Vectorcall(fn, argv, n + 1, NULL);
    if (argv != stack)
        PyMem_Free(argv);
    return r;
}

static int core_wake_at(Core *c, int64_t now);
static int ctrl_point_at(Ctrl *c, int64_t now, Py_ssize_t channel);
static int ctrl_deliver(Ctrl *c, PyObject *req, int64_t now);
static PyObject *ctrl_point_py(Ctrl *c, PyObject *const *args,
                               Py_ssize_t nargs);
static PyObject *ctrl_deliver_py(Ctrl *c, PyObject *const *args,
                                 Py_ssize_t nargs);

/* Dispatch the lane handler fn on (now, arg): the controller's own
 * _fast_point (arg the channel) or _fast_deliver (arg the request) runs
 * its body; any other handler is called through Python. */
static int engine_lane_call(PyObject *fn, int64_t now, Py_ssize_t ch,
                            PyObject *req)
{
    PyObject *k, *args[2];
    int rc;
    if (fn == NULL)
        return closed("engine");
    k = req == NULL ? own(fn, ENTRY(ctrl_point_py))
                    : own(fn, ENTRY(ctrl_deliver_py));
    if (k != NULL) {
        Py_INCREF(k);
        rc = req == NULL ? ctrl_point_at((Ctrl *)k, now, ch)
                         : ctrl_deliver((Ctrl *)k, req, now);
        Py_DECREF(k);
        return rc;
    }
    args[0] = PyLong_FromLongLong(now);
    args[1] = req == NULL ? PyLong_FromSsize_t(ch) : req;
    if (req == NULL)
        Py_XINCREF(args[1]);
    Py_INCREF(fn);
    rc = args[0] != NULL && args[1] != NULL
        ? call_drop(PyObject_Vectorcall(fn, args, 2, NULL)) : -1;
    Py_DECREF(fn);
    Py_XDECREF(args[0]);
    if (req == NULL)
        Py_XDECREF(args[1]);
    return rc;
}

/* The merged pop: the global (cycle, seq) minimum across the heap, the
 * decision slots and the completion lanes, dispatched until every source
 * is empty or stop_requested is set. */
static int engine_loop(Engine *e, int bounded, long long max_events)
{
    const long long start = e->events_processed;
    unsigned long tick = 0;
    for (;;) {
        int64_t bc = NEVER, bs = NEVER;
        int src = -1, rc;
        Py_ssize_t ch = 0, i;
        if (e->heap_len) {
            bc = e->heap[0].cycle;
            bs = e->heap[0].seq;
            src = 0;
        }
        for (i = 0; i < e->nch; i++) {
            int64_t c = e->dec_cycle[i];
            Lane *q = &e->lanes[i];
            if (c < bc || (c == bc && e->dec_seq[i] < bs)) {
                bc = c;
                bs = e->dec_seq[i];
                src = 1;
                ch = i;
            }
            if (q->len) {
                Completion *f = &q->buf[q->head];
                if (f->cycle < bc || (f->cycle == bc && f->seq < bs)) {
                    bc = f->cycle;
                    bs = f->seq;
                    src = 2;
                    ch = i;
                }
            }
        }
        if (src < 0)
            return 0;
        e->now = bc;
        e->events_processed++;
        if (src == 2) {
            PyObject *req = lane_pop(&e->lanes[ch]);
            rc = engine_lane_call(e->deliver_fn, bc, ch, req);
            Py_DECREF(req);
        } else if (src == 1) {
            e->dec_cycle[ch] = NEVER;
            e->dec_seq[ch] = NEVER;
            rc = engine_lane_call(e->point_fn, bc, ch, NULL);
        } else {
            Event ev = heap_pop(e);
            if (ev.wake) {
                rc = core_wake_at((Core *)ev.fn, bc);
            } else {
                PyObject *now = PyLong_FromLongLong(bc);
                rc = now != NULL ? call_drop(call_event(ev.fn, now, ev.args))
                                 : -1;
                Py_XDECREF(now);
            }
            Py_DECREF(ev.fn);
            Py_XDECREF(ev.args);
        }
        if (rc < 0)
            return -1;
        if (e->stop_requested)
            return 0;
        if (bounded && e->events_processed - start > max_events) {
            PyErr_Format(PyExc_RuntimeError,
                         "event budget exceeded (%lld); livelock suspected",
                         max_events);
            return -1;
        }
        /* The loop may run no bytecode for a long stretch: let a SIGINT
         * through. */
        if ((++tick & 1023) == 0 && PyErr_CheckSignals() < 0)
            return -1;
    }
}

/* run(max_events=None): drain events.  The simulation allocates millions
 * of short-lived containers and none of them form cycles that must be
 * reclaimed mid-run, so the cycle collector is suspended for the drain and
 * the caller's setting restored. */
static PyObject *engine_run(Engine *e, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"max_events", NULL};
    PyObject *limit = Py_None;
    long long max_events = 0;
    int was_enabled, rc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &limit))
        return NULL;
    if (limit != Py_None && (max_events = PyLong_AsLongLong(limit)) == -1
        && PyErr_Occurred())
        return NULL;
    was_enabled = PyGC_Disable();
    rc = engine_loop(e, limit != Py_None, max_events);
    if (was_enabled)
        PyGC_Enable();
    return done_or_null(rc);
}

/* close(), and tp_clear: drop every pending event and the lane handlers,
 * keeping the clock and the counters; the engine cannot run again. */
static int engine_clear(Engine *e)
{
    engine_drop_events(e);
    Py_CLEAR(e->point_fn);
    Py_CLEAR(e->deliver_fn);
    return 0;
}

static PyObject *engine_close(Engine *e, PyObject *Py_UNUSED(ignored))
{
    engine_clear(e);
    Py_RETURN_NONE;
}

static int engine_traverse(Engine *e, visitproc visit, void *arg)
{
    Py_ssize_t i, j;
    for (i = 0; i < e->heap_len; i++) {
        Py_VISIT(e->heap[i].fn);
        Py_VISIT(e->heap[i].args);
    }
    for (i = 0; i < e->nch; i++) {
        Lane *q = &e->lanes[i];
        for (j = 0; j < q->len; j++)
            Py_VISIT(q->buf[(q->head + j) % q->cap].req);
    }
    Py_VISIT(e->point_fn);
    Py_VISIT(e->deliver_fn);
    return 0;
}

static void engine_dealloc(Engine *e)
{
    PyObject_GC_UnTrack(e);
    engine_clear(e);
    engine_free_lanes(e);
    PyMem_Free(e->heap);
    Py_TYPE(e)->tp_free((PyObject *)e);
}

#define EMEMBER(name, type, field, doc) \
    {name, type, offsetof(Engine, field), 0, doc}

static PyMemberDef engine_members[] = {
    EMEMBER("now", T_LONGLONG, now, "the current cycle"),
    EMEMBER("strict", T_BOOL, strict,
            "raise PastEventError instead of clamping a past schedule"),
    EMEMBER("events_processed", T_LONGLONG, events_processed,
            "events dispatched, from every source"),
    EMEMBER("clamped_events", T_LONGLONG, clamped_events,
            "past-cycle schedules clamped to the present (0 in a clean run)"),
    EMEMBER("stop_requested", T_BOOL, stop_requested,
            "cooperative stop: run() returns after the event that sets it"),
    {NULL}
};

static PyMethodDef engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))engine_schedule, METH_FASTCALL,
     "schedule(cycle, fn, *args): run fn(now, *args) at cycle"},
    {"kick", (PyCFunction)(void (*)(void))engine_kick, METH_FASTCALL,
     "kick(channel, cycle): arm channel's decision slot"},
    {"complete", (PyCFunction)(void (*)(void))engine_complete, METH_FASTCALL,
     "complete(channel, cycle, req): append to channel's completion lane"},
    {"attach_channels", (PyCFunction)(void (*)(void))engine_attach,
     METH_FASTCALL,
     "attach_channels(n, point_fn, deliver_fn): register the lane handlers"},
    {"run", (PyCFunction)(void (*)(void))engine_run,
     METH_VARARGS | METH_KEYWORDS, "run(max_events=None): drain events"},
    {"close", (PyCFunction)engine_close, METH_NOARGS,
     "drop every pending event and the lane handlers"},
    {NULL}
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._core.EngineKernel",
    .tp_basicsize = sizeof(Engine),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The event engine's queues and run loop; EventEngine's base.",
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_traverse = (traverseproc)engine_traverse,
    .tp_clear = (inquiry)engine_clear,
    .tp_methods = engine_methods,
    .tp_members = engine_members,
};

/* ======================================================================
 * ControllerKernel
 * ====================================================================== */

/* One channel as the scheduling point sees it: the Channel, its bank
 * vectors and counters, the two queue views and the armed-decision flag. */
typedef struct {
    PyObject *ch, *reads, *writes;
    int64_t *ready, *open_row, *hits, *acts, *confs, *c, *act_times;
    int64_t nbanks;
    char pending;
} ChanView;

/* The address mapper's bit layout, LSB first: line offset, channel,
 * bank, column (line in row), then the row (repro.dram.address). */
typedef struct {
    int64_t off, ch, bank, col;
} Layout;

struct Ctrl {
    PyObject_HEAD
    char drain_mode, prefiltered, open_page;
    PyObject *engine, *dram, *policy, *queues, *stats, *ctx, *spans;
    PyObject *timing_cls, *on_read_complete;
    PyObject *observers, *reads, *writes;
    /* callbacks waiting for a free buffer slot */
    FanOut space;
    /* SchedulingPolicy's own select_read and select_write (runs_rule) */
    PyObject *base_read, *base_write;
    /* the policy's rules and their pinned inputs */
    Rules rules;
    /* one decision's candidates (borrowed from a queue view), their
     * row-hit flags and the ranked rule's scratch: cap, cap and 2 * cap
     * entries */
    Request **cand;
    char *hit;
    int64_t *scratch;
    Py_ssize_t cap;
    /* the queues' and stats' counters and per-core vectors */
    int64_t *qc, *pending_reads, *pending_writes, *sc;
    int64_t *read_count, *lat_sum, *lat_max, *bytes_read, *bytes_written;
    int64_t *write_count;
    Py_ssize_t ncores;
    ChanView *chans;
    Py_ssize_t nch;
    Layout map;
    int64_t capacity, t_rp, t_rcd, t_cl, t_burst, t_wr, t_rrd;
    int64_t t_faw, drain_high, drain_low, overhead, line_bytes, horizon;
    Pins pins;
};

static PyTypeObject CtrlType;

static int ctrl_bound(Ctrl *c)
{
    if (c->chans != NULL)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "the controller is not bound");
    return -1;
}

/* Whether the shared buffer has a free slot: 1, 0 or -1. */
static int ctrl_can_accept(Ctrl *c)
{
    if (ctrl_bound(c) < 0)
        return -1;
    return c->qc[Q_OCCUPANCY] < c->capacity;
}

/* Arm the engine's decision slot for channel ch at max(busy_until, now),
 * unless one is armed already. */
static int ctrl_kick(Ctrl *c, Py_ssize_t ch, int64_t now)
{
    Engine *e = (Engine *)c->engine;
    int64_t busy;
    if (c->chans[ch].pending)
        return 0;
    if (ch >= e->nch) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the engine has no lane for this channel");
        return -1;
    }
    c->chans[ch].pending = 1;
    busy = c->chans[ch].c[CH_BUSY_UNTIL];
    engine_arm(e, ch, busy > now ? busy : now);
    return 0;
}

/* The write-drain hysteresis, tested here alone: a drain begins at
 * drain_high queued writes and ends at drain_low; the Python
 * _update_drain_mode performs the transition found due (the mode flip,
 * drain_entries, the telemetry event). */
static int ctrl_drain_check(Ctrl *c, int64_t now)
{
    Py_ssize_t nw = PyList_GET_SIZE(c->writes);
    PyObject *t;
    int rc;
    if (c->drain_mode ? nw > c->drain_low : nw < c->drain_high)
        return 0;
    if ((t = PyLong_FromLongLong(now)) == NULL)
        return -1;
    rc = call_drop(PyObject_CallMethodOneArg((PyObject *)c,
                                             s_update_drain_mode, t));
    Py_DECREF(t);
    return rc;
}

/* Decode byte address addr under layout m into out: channel, bank, row,
 * col (sub-line bits ignored).  AddressMapper.decode's arithmetic. */
static int decode(const Layout *m, int64_t addr, int64_t out[4])
{
    int64_t line;
    if (addr < 0) {
        char buf[64];
        snprintf(buf, sizeof buf, "negative address -0x%llx",
                 (unsigned long long)(-(addr + 1)) + 1);
        PyErr_SetString(PyExc_ValueError, buf);
        return -1;
    }
    line = addr >> m->off;
    out[0] = line & (((int64_t)1 << m->ch) - 1);
    line >>= m->ch;
    out[1] = line & (((int64_t)1 << m->bank) - 1);
    line >>= m->bank;
    out[3] = line & (((int64_t)1 << m->col) - 1);
    out[2] = line >> m->col;
    return 0;
}

static int layout_check(const Layout *m)
{
    if (m->off < 0 || m->ch < 0 || m->bank < 0 || m->col < 0
        || m->off + m->ch + m->bank + m->col > 62) {
        PyErr_SetString(PyExc_ValueError, "bad address layout");
        return -1;
    }
    return 0;
}

/* decode(addr, off_bits, ch_bits, bank_bits, col_bits) -> (channel, bank,
 * row, col): AddressMapper.decode's arithmetic. */
static PyObject *mod_decode(PyObject *Py_UNUSED(m), PyObject *const *args,
                            Py_ssize_t nargs)
{
    Layout map;
    int64_t addr, at[4];
    if (nargs_are(nargs, 5) < 0 || as_i64(args[0], &addr) < 0
        || as_i64(args[1], &map.off) < 0 || as_i64(args[2], &map.ch) < 0
        || as_i64(args[3], &map.bank) < 0 || as_i64(args[4], &map.col) < 0
        || layout_check(&map) < 0 || decode(&map, addr, at) < 0)
        return NULL;
    return Py_BuildValue("(LLLL)", (long long)at[0], (long long)at[1],
                         (long long)at[2], (long long)at[3]);
}

/* Accept r into the buffer: 1, 0 when full, -1 on error.  Decodes its
 * address (req.coord is built only when read), stamps arrival and age,
 * files the request in its queue and channel view, runs the drain test
 * and kicks the channel. */
static int ctrl_enqueue(Ctrl *c, Request *r, int64_t now)
{
    int64_t ch, bank, at[4];
    PyObject *view;
    int rc;
    if ((rc = ctrl_can_accept(c)) <= 0)
        return rc;
    if (r->core_id < 0 || r->core_id >= c->ncores)
        return index_error("request core_id");
    if (decode(&c->map, r->addr, at) < 0)
        return -1;
    r->channel = ch = at[0];
    r->bank = bank = at[1];
    r->row = at[2];
    r->col = at[3];
    Py_CLEAR(r->coord);
    if (ch < 0 || ch >= c->nch)
        return index_error("decoded channel");
    if (bank < 0 || bank >= c->chans[ch].nbanks)
        return index_error("decoded bank");
    r->arrival_cycle = now;
    r->seq = c->qc[Q_NEXT_SEQ]++;
    c->qc[Q_OCCUPANCY]++;
    if (r->is_write) {
        view = c->chans[ch].writes;
        c->pending_writes[r->core_id]++;
        rc = PyList_Append(c->writes, (PyObject *)r);
    } else {
        view = c->chans[ch].reads;
        c->pending_reads[r->core_id]++;
        rc = PyList_Append(c->reads, (PyObject *)r);
    }
    if (rc < 0 || PyList_Append(view, (PyObject *)r) < 0
        || ctrl_drain_check(c, now) < 0 || ctrl_kick(c, ch, now) < 0)
        return -1;
    return 1;
}

/* enqueue(req, now) -> bool: False when the buffer is full; the caller
 * then stalls and registers through wait_for_space.  The hierarchy's miss
 * path runs ctrl_enqueue directly. */
static PyObject *ctrl_enqueue_py(Ctrl *c, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    Request *r;
    int64_t now;
    int rc;
    if (nargs_are(nargs, 2) < 0 || (r = as_request(args[0])) == NULL
        || as_i64(args[1], &now) < 0)
        return NULL;
    if ((rc = ctrl_enqueue(c, r, now)) < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *ctrl_can_accept_py(Ctrl *c, PyObject *Py_UNUSED(ignored))
{
    int rc = ctrl_can_accept(c);
    return rc < 0 ? NULL : PyBool_FromLong(rc);
}

static int ctrl_wait_for_space(Ctrl *c, PyObject *callback)
{
    if (c->engine == NULL)
        return closed("controller");
    return fan_out_add(&c->space, callback);
}

/* wait_for_space(callback): a one-shot callback for the next freed slot. */
static PyObject *ctrl_wait_for_space_py(Ctrl *c, PyObject *callback)
{
    return done_or_null(ctrl_wait_for_space(c, callback));
}

/* Room for n candidates in the decision arrays. */
static int ctrl_reserve(Ctrl *c, Py_ssize_t n)
{
    Request **v;
    char *h;
    int64_t *s;
    if (n <= c->cap)
        return 0;
    n = n > 2 * c->cap ? n : 2 * c->cap;
    if ((v = PyMem_Realloc(c->cand, n * sizeof *v)) != NULL)
        c->cand = v;
    if ((h = PyMem_Realloc(c->hit, n)) != NULL)
        c->hit = h;
    if ((s = PyMem_Realloc(c->scratch, 2 * n * sizeof *s)) != NULL)
        c->scratch = s;
    if (v == NULL || h == NULL || s == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->cap = n;
    return 0;
}

/* Scan one queue view of cv for the scheduling point: arrived requests
 * whose bank is ready within the horizon go to c->cand (*nout of them),
 * the earliest later bank-ready cycle to *wake, the earliest future
 * arrival to *future, and whether any request has arrived to *arrived. */
static int scan_view(Ctrl *c, PyObject *view, ChanView *cv, int64_t now,
                     int64_t horizon, Py_ssize_t *nout, int64_t *wake,
                     int64_t *future, int *arrived)
{
    Py_ssize_t i, n = PyList_GET_SIZE(view);
    *nout = 0;
    if (ctrl_reserve(c, n) < 0)
        return -1;
    for (i = 0; i < n; i++) {
        Request *r = as_request(PyList_GET_ITEM(view, i));
        int64_t t;
        if (r == NULL)
            return -1;
        if (r->arrival_cycle <= now) {
            *arrived = 1;
            if (r->bank < 0 || r->bank >= cv->nbanks)
                return index_error("request bank");
            t = cv->ready[r->bank];
            if (t <= horizon) {
                c->cand[(*nout)++] = r;
            } else if (t < *wake) {
                *wake = t;
            }
        } else if (r->arrival_cycle < *future) {
            *future = r->arrival_cycle;
        }
    }
    return 0;
}

static int64_t min64(int64_t a, int64_t b)
{
    return a < b ? a : b;
}

/* Does another queued request of this channel hit (bank, row)?  The
 * close-page keep-open test. */
static int row_wanted(PyObject *view, int64_t bank, int64_t row)
{
    Py_ssize_t i, n = PyList_GET_SIZE(view);
    for (i = 0; i < n; i++) {
        Request *r = as_request(PyList_GET_ITEM(view, i));
        if (r == NULL)
            return -1;
        if (r->bank == bank && r->row == row)
            return 1;
    }
    return 0;
}

/* TransactionTiming(...), then each dram.observers subscriber in attach
 * order. */
static int notify_observers(Ctrl *c, Request *r, int64_t cas,
                            int64_t data_start, int64_t data_end, int hit,
                            int64_t bank_start, int conflict, int keep_open)
{
    PyObject *v[6], *timing, *args[5];
    Py_ssize_t j;
    int i, rc = -1;
    v[0] = PyLong_FromLongLong(cas);
    v[1] = PyLong_FromLongLong(data_start);
    v[2] = PyLong_FromLongLong(data_end);
    v[3] = PyBool_FromLong(hit);
    v[4] = PyLong_FromLongLong(bank_start);
    v[5] = PyBool_FromLong(conflict);
    for (i = 0; i < 6; i++)
        if (v[i] == NULL)
            goto done;
    timing = PyObject_Vectorcall(c->timing_cls, v, 0, kw_timing);
    if (timing == NULL)
        goto done;
    if ((args[0] = request_coord(r)) == NULL) {
        Py_DECREF(timing);
        goto done;
    }
    args[1] = timing;
    args[2] = r->is_write ? Py_True : Py_False;
    args[3] = keep_open ? Py_True : Py_False;
    args[4] = conflict ? Py_True : Py_False;
    rc = 0;
    for (j = 0; rc == 0 && j < PyList_GET_SIZE(c->observers); j++) {
        PyObject *fn = PyList_GET_ITEM(c->observers, j);
        Py_INCREF(fn);
        rc = call_drop(PyObject_Vectorcall(fn, args, 5, NULL));
        Py_DECREF(fn);
    }
    Py_DECREF(args[0]);
    Py_DECREF(timing);
done:
    for (i = 0; i < 6; i++)
        Py_XDECREF(v[i]);
    return rc;
}

/* Observation only: copy the resolved stamps onto a sampled request's
 * span and append it to the collector's completed spans. */
static int stamp_span(Ctrl *c, Request *r, Py_ssize_t channel, int64_t now,
                      int64_t bank_start, int64_t cas, int64_t data_start,
                      int64_t data_end, int hit, int conflict)
{
    PyObject *span = r->span, *done;
    int rc;
    Py_INCREF(span);
    rc = (set_attr_i64(span, s_arrival, r->arrival_cycle) < 0
          || set_attr_i64(span, s_pick, now) < 0
          || PyObject_SetAttr(span, s_track, s_controller_track) < 0
          || set_attr_i64(span, s_channel, channel) < 0) ? -1 : 0;
    if (rc == 0
        && (set_attr_i64(span, s_bank, r->bank) < 0
            || set_attr_i64(span, s_row, r->row) < 0
            || set_attr_i64(span, s_bank_start, bank_start) < 0
            || set_attr_i64(span, s_cas, cas) < 0
            || set_attr_i64(span, s_data_start, data_start) < 0
            || set_attr_i64(span, s_data_end, data_end) < 0
            || set_attr_i64(span, s_done, r->done_cycle) < 0
            || PyObject_SetAttr(span, s_row_hit, hit ? Py_True : Py_False) < 0
            || PyObject_SetAttr(span, s_conflict,
                                conflict ? Py_True : Py_False) < 0))
        rc = -1;
    if (rc == 0) {
        if (c->spans == NULL || c->spans == Py_None) {
            PyErr_SetString(PyExc_AttributeError,
                            "a sampled request reached a controller without "
                            "a span collector");
            rc = -1;
        } else if ((done = PyObject_GetAttr(c->spans, s_completed)) == NULL) {
            rc = -1;
        } else {
            rc = PyList_Check(done) ? PyList_Append(done, span) : -1;
            if (rc < 0 && !PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "completed must be a list");
            Py_DECREF(done);
        }
    }
    Py_DECREF(span);
    return rc;
}

/* Commit r on channel cv at now: queue removal, the page policy, the DDR2
 * timing against the channel's bank vectors and data bus (the rules are
 * listed in repro.dram.channel), the observers, the stats, the completion
 * lane and the span stamps. */
static int ctrl_commit(Ctrl *c, Py_ssize_t channel, Request *r, int64_t now)
{
    ChanView *cv = &c->chans[channel];
    int64_t bank = r->bank, row = r->row, core = r->core_id;
    int64_t start, bank_start, orow, cas, act, data_start, data_end;
    int64_t recovery, lat, done;
    int is_write = r->is_write, keep_open, hit, conflict = 0;

    if (core < 0 || core >= c->ncores)
        return index_error("request core_id");
    if (bank < 0 || bank >= cv->nbanks)
        return index_error("request bank");
    c->qc[Q_OCCUPANCY]--;
    if (is_write) {
        c->pending_writes[core]--;
        if (remove_item(c->writes, (PyObject *)r) < 0
            || remove_item(cv->writes, (PyObject *)r) < 0)
            return -1;
    } else {
        c->pending_reads[core]--;
        if (remove_item(c->reads, (PyObject *)r) < 0
            || remove_item(cv->reads, (PyObject *)r) < 0)
            return -1;
    }
    /* Page policy.  Closed (paper default): keep the row latched only
     * while another queued request would hit it.  Open: always. */
    keep_open = 1;
    if (!c->open_page && (keep_open = row_wanted(cv->reads, bank, row)) == 0)
        keep_open = row_wanted(cv->writes, bank, row);
    if (keep_open < 0)
        return -1;
    orow = cv->open_row[bank];
    start = now > cv->ready[bank] ? now : cv->ready[bank];
    bank_start = start;
    hit = orow == row;
    if (hit) {
        cas = start;
    } else {
        if (orow != -1) {
            start += c->t_rp;
            cv->confs[bank]++;
            conflict = 1;
        }
        act = start;
        if (c->t_rrd || c->t_faw) {
            /* The last four ACTs, oldest first. */
            int64_t n = cv->c[CH_ACT_COUNT], *t = cv->act_times;
            if (c->t_rrd && n && t[n - 1] + c->t_rrd > act)
                act = t[n - 1] + c->t_rrd;
            if (c->t_faw && n == 4 && t[0] + c->t_faw > act)
                act = t[0] + c->t_faw;
            if (n == 4) {
                memmove(t, t + 1, 3 * sizeof(int64_t));
                n = 3;
            }
            t[n] = act;
            cv->c[CH_ACT_COUNT] = n + 1;
        }
        cas = act + c->t_rcd;
    }
    data_start = cas + c->t_cl;
    if (data_start < cv->c[CH_BUS_FREE])
        data_start = cv->c[CH_BUS_FREE];
    data_end = data_start + c->t_burst;
    cv->c[CH_BUS_FREE] = data_end;
    cv->c[CH_BUSY_UNTIL] = now + c->t_burst;
    (hit ? cv->hits : cv->acts)[bank]++;
    recovery = is_write ? c->t_wr : 0;
    cv->open_row[bank] = keep_open ? row : -1;
    cv->ready[bank] = keep_open ? data_end + recovery
                                : data_end + recovery + c->t_rp;
    cv->c[CH_TRANSACTIONS]++;
    if (is_write)
        cv->c[CH_WRITES]++;
    cv->c[CH_DATA_CYCLES] += data_end - data_start;
    if (PyList_GET_SIZE(c->observers)
        && notify_observers(c, r, cas, data_start, data_end, hit, bank_start,
                            conflict, keep_open) < 0)
        return -1;
    r->issue_cycle = now;
    r->row_hit = (char)hit;
    if (is_write) {
        r->done_cycle = data_end;
        c->write_count[core]++;
        c->bytes_written[core] += c->line_bytes;
    } else {
        /* Reads pay the controller overhead on the return path. */
        done = data_end + c->overhead;
        r->done_cycle = done;
        lat = done - r->arrival_cycle;
        c->read_count[core]++;
        c->lat_sum[core] += lat;
        if (lat > c->lat_max[core])
            c->lat_max[core] = lat;
        c->bytes_read[core] += c->line_bytes;
        if (hit)
            c->sc[S_READ_ROW_HITS]++;
        if (r->on_complete != NULL && r->on_complete != Py_None) {
            Engine *e = (Engine *)c->engine;
            if (channel >= e->nch) {
                PyErr_SetString(PyExc_RuntimeError,
                                "the engine has no lane for this channel");
                return -1;
            }
            if (lane_push(&e->lanes[channel], done, e->seq, (PyObject *)r) < 0)
                return -1;
            e->seq++;
        }
    }
    if (r->span != NULL && r->span != Py_None
        && stamp_span(c, r, channel, now, bank_start, cas, data_start,
                      data_end, hit, conflict) < 0)
        return -1;
    return 0;
}

/* Whether the policy's select_read (is_write: select_write) resolves to
 * SchedulingPolicy's own method, which runs the declared rule: the type's
 * attribute is that function and the instance's dict does not shadow it.
 * Checked at every decision, so a wrap set on the instance after the
 * build (DecisionLog.attach) or on the class before it sees every
 * decision. */
static int runs_rule(Ctrl *c, int is_write)
{
    PyObject *name = is_write ? s_select_write : s_select_read, *d, *v;
    if (_PyType_Lookup(Py_TYPE(c->policy), name)
        != (is_write ? c->base_write : c->base_read))
        return 0;
    if ((d = PyObject_GenericGetDict(c->policy, NULL)) == NULL)
        return -1;
    v = PyDict_GetItemWithError(d, name);
    Py_DECREF(d);
    return v != NULL ? 0 : PyErr_Occurred() ? -1 : 1;
}

/* The policy's Python method over the n candidates, with ctx.now and
 * ctx.channel set: a new reference to the request it picks. */
static Request *ctrl_call_policy(Ctrl *c, Py_ssize_t n, int is_write,
                                 int64_t now, Py_ssize_t channel)
{
    PyObject *cands = PyList_New(n), *t, *args[3], *res = NULL;
    Py_ssize_t i;
    if (cands == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        Py_INCREF(c->cand[i]);
        PyList_SET_ITEM(cands, i, (PyObject *)c->cand[i]);
    }
    if ((t = PyLong_FromLongLong(now)) == NULL
        || PyObject_SetAttr(c->ctx, s_now, t) < 0)
        goto done;
    Py_SETREF(t, PyLong_FromSsize_t(channel));
    if (t == NULL || PyObject_SetAttr(c->ctx, s_channel, t) < 0)
        goto done;
    args[0] = c->policy;
    args[1] = cands;
    args[2] = c->ctx;
    res = PyObject_VectorcallMethod(is_write ? s_select_write : s_select_read,
                                    args, 3, NULL);
    if (res != NULL && as_request(res) == NULL)
        Py_CLEAR(res);
done:
    Py_XDECREF(t);
    Py_DECREF(cands);
    return (Request *)res;
}

/* One decision over the n candidates in c->cand, in queue order: the
 * paper's command-level rule (row-buffer hits beat misses regardless of
 * core priority, Sections 3.2 / 4.1) when the policy's context says so,
 * then the policy's rule, run here unless its method is not the one that
 * runs it, then the commit. */
static int ctrl_decide(Ctrl *c, Py_ssize_t channel, Py_ssize_t n,
                       int is_write, int64_t now)
{
    ChanView *cv = &c->chans[channel];
    int rule = is_write ? c->rules.write : c->rules.read, native = 0, rc;
    Py_ssize_t i, m = 0;
    Request *r;
    if (c->prefiltered && n > 1) {
        for (i = 0; i < n; i++)
            if (cv->open_row[c->cand[i]->bank] == c->cand[i]->row)
                c->cand[m++] = c->cand[i];
        if (m)
            n = m;
    }
    if (rule != RULE_NONE && (native = runs_rule(c, is_write)) < 0)
        return -1;
    if (native) {
        const char *hit = NULL;
        if (!c->prefiltered && rule != RULE_OLDEST && n > 1) {
            for (i = 0; i < n; i++)
                c->hit[i] = cv->open_row[c->cand[i]->bank] == c->cand[i]->row;
            hit = c->hit;
        }
        r = rule_pick(&c->rules, rule, c->cand, hit, n, c->pending_reads,
                      c->ncores, c->ctx, c->scratch);
        Py_XINCREF(r);
    } else {
        r = ctrl_call_policy(c, n, is_write, now, channel);
    }
    if (r == NULL)
        return -1;
    rc = ctrl_commit(c, channel, r, now) < 0
        || fan_out(&c->space, now) < 0 ? -1 : 0;
    Py_DECREF(r);
    /* More work?  Re-arm at the channel's next issue opportunity. */
    if (rc == 0 && c->qc[Q_OCCUPANCY])
        rc = ctrl_kick(c, channel, now);
    return rc;
}

/* One scheduling point.  Precedence: drain writes > reads > idle writes.
 * Requests whose arrival_cycle lies in the future are invisible (cores
 * running inside their fetch lookahead enqueue future-dated requests), and
 * requests on banks busy beyond now + horizon are ineligible; when nothing
 * is eligible the point re-arms at the earliest future arrival or
 * bank-ready cycle.  Otherwise ctrl_decide picks among the candidates. */
static int ctrl_point(Ctrl *c, int64_t now, Py_ssize_t channel)
{
    ChanView *cv = &c->chans[channel];
    const int64_t horizon = now + c->horizon;
    int64_t w_wake = NEVER, r_wake = NEVER, future = NEVER, r_future = NEVER;
    Py_ssize_t n = 0;
    int arrived = 0;

    cv->pending = 0;
    if (ctrl_drain_check(c, now) < 0)
        return -1;
    if (c->drain_mode) {
        if (scan_view(c, cv->writes, cv, now, horizon, &n, &w_wake, &future,
                      &arrived) < 0)
            return -1;
        if (arrived) {
            Py_ssize_t i, nr = PyList_GET_SIZE(cv->reads);
            if (n)
                return ctrl_decide(c, channel, n, 1, now);
            /* Drain wants a write but none is bank-ready: the re-arm
             * horizon spans both queues' future arrivals. */
            for (i = 0; i < nr; i++) {
                Request *r = as_request(PyList_GET_ITEM(cv->reads, i));
                if (r == NULL)
                    return -1;
                if (r->arrival_cycle > now && r->arrival_cycle < future)
                    future = r->arrival_cycle;
            }
            if (min64(future, w_wake) != NEVER)
                return ctrl_kick(c, channel, min64(future, w_wake));
            return 0;
        }
    }
    if (scan_view(c, cv->reads, cv, now, horizon, &n, &r_wake, &r_future,
                  &arrived) < 0)
        return -1;
    if (n)
        return ctrl_decide(c, channel, n, 0, now);
    if (!c->drain_mode) {
        /* Idle-channel opportunism: writes proceed when no read wants the
         * channel; only now is the write view scanned. */
        future = r_future;
        if (scan_view(c, cv->writes, cv, now, horizon, &n, &w_wake, &future,
                      &arrived) < 0)
            return -1;
        if (n)
            return ctrl_decide(c, channel, n, 1, now);
    } else {
        /* The drain scan found no arrived write; it holds the write-queue
         * future. */
        future = min64(future, r_future);
    }
    {
        int64_t next = min64(future, min64(r_wake, w_wake));
        /* idle otherwise; the next enqueue kicks the channel */
        return next != NEVER ? ctrl_kick(c, channel, next) : 0;
    }
}

/* One scheduling point on channel, checked. */
static int ctrl_point_at(Ctrl *c, int64_t now, Py_ssize_t channel)
{
    if (ctrl_bound(c) < 0)
        return -1;
    if (channel < 0 || channel >= c->nch) {
        PyErr_SetString(PyExc_IndexError, "no such channel");
        return -1;
    }
    return ctrl_point(c, now, channel);
}

/* _fast_point(now, channel): one scheduling point. */
static PyObject *ctrl_point_py(Ctrl *c, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t now, ch;
    if (nargs_are(nargs, 2) < 0 || as_i64(args[0], &now) < 0
        || as_i64(args[1], &ch) < 0)
        return NULL;
    return done_or_null(ctrl_point_at(c, now, (Py_ssize_t)ch));
}

static int hier_fill(Hier *h, Request *r, int64_t now);
static PyObject *hier_on_fill(Hier *h, PyObject *const *args,
                              Py_ssize_t nargs);

/* Hand a read's data back to the core side through req.on_complete (the
 * hierarchy's own _on_fill runs its body), then tell a policy that
 * watches completions. */
static int ctrl_deliver(Ctrl *c, PyObject *req, int64_t now)
{
    PyObject *fn, *k, *argv[3], *t = NULL;
    Request *r;
    int rc;
    if ((r = as_request(req)) == NULL)
        return -1;
    fn = r->on_complete != NULL ? r->on_complete : Py_None;
    Py_INCREF(fn);
    if ((k = own(fn, ENTRY(hier_on_fill))) != NULL) {
        rc = hier_fill((Hier *)k, r, now);
    } else {
        argv[0] = req;
        argv[1] = boxed(&t, now);
        rc = argv[1] != NULL
            ? call_drop(PyObject_Vectorcall(fn, argv, 2, NULL)) : -1;
    }
    Py_DECREF(fn);
    if (rc == 0 && c->on_read_complete != NULL
        && c->on_read_complete != Py_None) {
        argv[0] = PyLong_FromLongLong(r->core_id);
        argv[1] = PyLong_FromLongLong(c->line_bytes);
        argv[2] = boxed(&t, now);
        fn = c->on_read_complete;
        Py_INCREF(fn);
        rc = argv[0] && argv[1] && argv[2]
            ? call_drop(PyObject_Vectorcall(fn, argv, 3, NULL)) : -1;
        Py_DECREF(fn);
        Py_XDECREF(argv[0]);
        Py_XDECREF(argv[1]);
    }
    Py_XDECREF(t);
    return rc;
}

/* _fast_deliver(now, req): one read completion. */
static PyObject *ctrl_deliver_py(Ctrl *c, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int64_t now;
    if (nargs_are(nargs, 2) < 0 || as_i64(args[0], &now) < 0)
        return NULL;
    return done_or_null(ctrl_deliver(c, args[1], now));
}

/* A per-core vector of the queues or stats, at least ncores long. */
static int64_t *pin_cores(Ctrl *c, PyObject *obj, PyObject *name)
{
    return pin(&c->pins, obj, name, sizeof(int64_t), c->ncores);
}

/* _bind(...): take the objects the controller walks and the lane
 * callables.  Called once, by FastMemoryController.__init__. */
static PyObject *ctrl_bind(Ctrl *c, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "engine", "dram", "policy", "queues", "stats", "ctx",
        "transaction_timing", "on_read_complete", "rule_methods",
        "write_drain_high", "write_drain_low", "overhead", "line_bytes",
        "open_page", NULL};
    PyObject *engine, *dram, *policy, *queues, *stats, *ctx, *timing_cls;
    PyObject *base_read, *base_write;
    PyObject *notify, *channels = NULL, *mapper = NULL, *timing = NULL;
    PyObject *rbc = NULL, *wbc = NULL, *pending = NULL, *pre = NULL;
    long long high, low, overhead, line_bytes;
    int open_page, prefiltered;
    Py_ssize_t i;
    Pins *p = &c->pins;

    if (c->chans != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the controller is already bound");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OOOOOOOO(OO)LLLLp", kwlist, &engine, &dram,
            &policy, &queues, &stats, &ctx, &timing_cls, &notify, &base_read,
            &base_write, &high, &low, &overhead, &line_bytes, &open_page))
        return NULL;
    if (!PyObject_TypeCheck(engine, &EngineType)) {
        PyErr_SetString(PyExc_TypeError, "engine must be an EventEngine");
        return NULL;
    }
    KEEP(c, engine, engine);
    KEEP(c, dram, dram);
    KEEP(c, policy, policy);
    KEEP(c, queues, queues);
    KEEP(c, stats, stats);
    KEEP(c, ctx, ctx);
    KEEP(c, timing_cls, timing_cls);
    KEEP(c, on_read_complete, notify);
    KEEP(c, base_read, base_read);
    KEEP(c, base_write, base_write);
    c->drain_high = high;
    c->drain_low = low;
    c->overhead = overhead;
    c->line_bytes = line_bytes;
    c->open_page = (char)open_page;
    /* A property of the bound policy: read once. */
    if ((pre = PyObject_GetAttr(ctx, s_hits_prefiltered)) == NULL
        || (prefiltered = PyObject_IsTrue(pre)) < 0)
        goto fail;
    c->prefiltered = (char)prefiltered;
    if (rules_load(&c->rules, policy, p) < 0)
        goto fail;
    /* A policy must name a rule for what its own methods do not pick. */
    if ((c->rules.read == RULE_NONE
         && _PyType_Lookup(Py_TYPE(policy), s_select_read) == base_read)
        || (c->rules.write == RULE_NONE
            && _PyType_Lookup(Py_TYPE(policy), s_select_write) == base_write)) {
        PyErr_Format(PyExc_TypeError,
                     "%.200s names no read_rule/write_rule and does not "
                     "override select_read/select_write",
                     Py_TYPE(policy)->tp_name);
        goto fail;
    }
    if ((channels = PyObject_GetAttr(dram, s_channels)) == NULL
        || (mapper = PyObject_GetAttr(dram, s_mapper)) == NULL
        || (timing = PyObject_GetAttr(dram, s_timing)) == NULL
        || get_list(dram, s_observers, &c->observers) < 0
        || attr_i64(mapper, s_off_bits, &c->map.off) < 0
        || attr_i64(mapper, s_ch_bits, &c->map.ch) < 0
        || attr_i64(mapper, s_bank_bits, &c->map.bank) < 0
        || attr_i64(mapper, s_col_bits, &c->map.col) < 0
        || attr_i64(timing, s_t_rp, &c->t_rp) < 0
        || attr_i64(timing, s_t_rcd, &c->t_rcd) < 0
        || attr_i64(timing, s_t_cl, &c->t_cl) < 0
        || attr_i64(timing, s_t_burst, &c->t_burst) < 0
        || attr_i64(timing, s_t_wr, &c->t_wr) < 0
        || attr_i64(timing, s_t_rrd, &c->t_rrd) < 0
        || attr_i64(timing, s_t_faw, &c->t_faw) < 0
        || attr_i64(queues, s_capacity, &c->capacity) < 0
        || get_list(queues, s_reads, &c->reads) < 0
        || get_list(queues, s_writes, &c->writes) < 0
        || get_list(queues, s_reads_by_ch, &rbc) < 0
        || get_list(queues, s_writes_by_ch, &wbc) < 0
        || (pending = PyObject_GetAttr(queues, s_pending_reads)) == NULL
        || (c->ncores = PyObject_Length(pending)) < 0
        || (c->qc = pin_counters(p, queues, Q_NFIELDS)) == NULL
        || (c->sc = pin_counters(p, stats, S_NFIELDS)) == NULL
        || (c->pending_reads = pin_cores(c, queues, s_pending_reads)) == NULL
        || (c->pending_writes = pin_cores(c, queues, s_pending_writes)) == NULL
        || (c->read_count = pin_cores(c, stats, s_read_count)) == NULL
        || (c->lat_sum = pin_cores(c, stats, s_read_latency_sum)) == NULL
        || (c->lat_max = pin_cores(c, stats, s_read_latency_max)) == NULL
        || (c->bytes_read = pin_cores(c, stats, s_bytes_read)) == NULL
        || (c->bytes_written = pin_cores(c, stats, s_bytes_written)) == NULL
        || (c->write_count = pin_cores(c, stats, s_write_count)) == NULL)
        goto fail;
    if (layout_check(&c->map) < 0)
        goto fail;
    if (!PyList_CheckExact(channels)) {
        PyErr_SetString(PyExc_TypeError, "the channels must be a list");
        goto fail;
    }
    /* Requests whose bank is busy beyond now + horizon are ineligible:
     * committing to a still-busy bank would wedge the data bus behind it. */
    c->horizon = 2 * c->t_burst;
    c->nch = PyList_GET_SIZE(channels);
    if ((c->chans = PyMem_New(ChanView, c->nch ? c->nch : 1)) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(c->chans, 0, sizeof(ChanView) * (c->nch ? c->nch : 1));
    for (i = 0; i < c->nch; i++) {
        ChanView *cv = &c->chans[i];
        PyObject *empty, *ch;
        int64_t nb;
        /* Grow the per-channel queue views to the channel count. */
        while (PyList_GET_SIZE(rbc) <= i || PyList_GET_SIZE(wbc) <= i) {
            PyObject *view = PyList_GET_SIZE(rbc) <= i ? rbc : wbc;
            if ((empty = PyList_New(0)) == NULL)
                goto fail;
            if (PyList_Append(view, empty) < 0) {
                Py_DECREF(empty);
                goto fail;
            }
            Py_DECREF(empty);
        }
        cv->ch = ch = PyList_GET_ITEM(channels, i);
        Py_INCREF(cv->ch);
        cv->reads = PyList_GET_ITEM(rbc, i);
        Py_INCREF(cv->reads);
        cv->writes = PyList_GET_ITEM(wbc, i);
        Py_INCREF(cv->writes);
        if (!PyList_CheckExact(cv->reads) || !PyList_CheckExact(cv->writes)) {
            PyErr_SetString(PyExc_TypeError, "queue views must be lists");
            goto fail;
        }
        if (attr_i64(ch, s_num_banks, &nb) < 0)
            goto fail;
        cv->nbanks = nb;
        if ((cv->ready = pin(p, ch, s_ready, 8, nb)) == NULL
            || (cv->open_row = pin(p, ch, s_open_row, 8, nb)) == NULL
            || (cv->hits = pin(p, ch, s_hits, 8, nb)) == NULL
            || (cv->acts = pin(p, ch, s_acts, 8, nb)) == NULL
            || (cv->confs = pin(p, ch, s_confs, 8, nb)) == NULL
            || (cv->act_times = pin(p, ch, s_act_cycles, 8, 4)) == NULL
            || (cv->c = pin_counters(p, ch, CH_NFIELDS)) == NULL)
            goto fail;
    }
    Py_DECREF(channels);
    Py_DECREF(mapper);
    Py_DECREF(timing);
    Py_DECREF(rbc);
    Py_DECREF(wbc);
    Py_DECREF(pending);
    Py_DECREF(pre);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(channels);
    Py_XDECREF(mapper);
    Py_XDECREF(timing);
    Py_XDECREF(rbc);
    Py_XDECREF(wbc);
    Py_XDECREF(pending);
    Py_XDECREF(pre);
    return NULL;
}

/* _unbind(): drop the space waiters and the policy's completion hook. */
static PyObject *ctrl_unbind(Ctrl *c, PyObject *Py_UNUSED(ignored))
{
    waits_drop(&c->space.live);
    Py_CLEAR(c->on_read_complete);
    Py_RETURN_NONE;
}

#define CTRL_FIELDS(X) \
    X(engine) X(dram) X(policy) X(queues) X(stats) X(ctx) X(spans) \
    X(timing_cls) X(on_read_complete) \
    X(observers) X(reads) X(writes) X(base_read) X(base_write)
#define CHAN_FIELDS(X) X(ch) X(reads) X(writes)

static int ctrl_traverse(Ctrl *c, visitproc visit, void *arg)
{
    Py_ssize_t i;
#define VISIT(f) Py_VISIT(c->f);
    CTRL_FIELDS(VISIT)
#undef VISIT
    if (waits_traverse(&c->space.live, visit, arg) < 0)
        return -1;
    for (i = 0; c->chans != NULL && i < c->nch; i++) {
#define VISIT(f) Py_VISIT(c->chans[i].f);
        CHAN_FIELDS(VISIT)
#undef VISIT
    }
    return 0;
}

static int ctrl_clear(Ctrl *c)
{
    Py_ssize_t i;
#define CLEAR(f) Py_CLEAR(c->f);
    CTRL_FIELDS(CLEAR)
#undef CLEAR
    waits_drop(&c->space.live);
    for (i = 0; c->chans != NULL && i < c->nch; i++) {
#define CLEAR(f) Py_CLEAR(c->chans[i].f);
        CHAN_FIELDS(CLEAR)
#undef CLEAR
    }
    return 0;
}

static void ctrl_dealloc(Ctrl *c)
{
    PyObject_GC_UnTrack(c);
    ctrl_clear(c);
    fan_out_free(&c->space);
    unpin(&c->pins);
    PyMem_Free(c->chans);
    PyMem_Free(c->cand);
    PyMem_Free(c->hit);
    PyMem_Free(c->scratch);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

#define CMEMBER(name, type, field, flags, doc) \
    {name, type, offsetof(Ctrl, field), flags, doc}

static PyMemberDef ctrl_members[] = {
    CMEMBER("drain_mode", T_BOOL, drain_mode, 0,
            "whether the write-drain hysteresis is engaged"),
    CMEMBER("spans", T_OBJECT, spans, 0,
            "request-lifecycle span collector, or None"),
    CMEMBER("engine", T_OBJECT, engine, READONLY, NULL),
    CMEMBER("dram", T_OBJECT, dram, READONLY, NULL),
    CMEMBER("policy", T_OBJECT, policy, READONLY, NULL),
    CMEMBER("queues", T_OBJECT, queues, READONLY,
            "the shared read/write buffer (RequestQueues)"),
    CMEMBER("stats", T_OBJECT, stats, READONLY, "the ControllerStats"),
    CMEMBER("_ctx", T_OBJECT, ctx, READONLY,
            "the one SchedulingContext, updated at every decision"),
    {NULL}
};

static PyMethodDef ctrl_methods[] = {
    {"enqueue", (PyCFunction)(void (*)(void))ctrl_enqueue_py, METH_FASTCALL,
     "enqueue(req, now) -> bool: accept req into the buffer; False when full"},
    {"can_accept", (PyCFunction)ctrl_can_accept_py, METH_NOARGS,
     "whether the shared buffer has a free slot"},
    {"wait_for_space", (PyCFunction)ctrl_wait_for_space_py, METH_O,
     "wait_for_space(callback): call callback(now) at the next freed slot"},
    {"_fast_point", (PyCFunction)(void (*)(void))ctrl_point_py, METH_FASTCALL,
     "_fast_point(now, channel): one scheduling point"},
    {"_fast_deliver", (PyCFunction)(void (*)(void))ctrl_deliver_py,
     METH_FASTCALL, "_fast_deliver(now, req): one read completion"},
    {"_bind", (PyCFunction)(void (*)(void))ctrl_bind,
     METH_VARARGS | METH_KEYWORDS, NULL},
    {"_unbind", (PyCFunction)ctrl_unbind, METH_NOARGS, NULL},
    {NULL}
};

/* The type's name ends in FastMemoryController, the Python class that
 * subclasses it, so the qualified names of the methods it inherits
 * (FastMemoryController.enqueue, ._fast_point, ._fast_deliver) are the
 * ones the benchmark ledger keys the controller layer's counts on. */
static PyTypeObject CtrlType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._core.FastMemoryController",
    .tp_basicsize = sizeof(Ctrl),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The memory controller's hot paths; FastMemoryController's "
              "base (exported as ControllerKernel).",
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor)ctrl_dealloc,
    .tp_traverse = (traverseproc)ctrl_traverse,
    .tp_clear = (inquiry)ctrl_clear,
    .tp_methods = ctrl_methods,
    .tp_members = ctrl_members,
};

/* ======================================================================
 * HierarchyKernel
 * ====================================================================== */

/* One MSHR file's entry table: live entries fill slots 0 .. occupancy - 1
 * of lines, stores (the store-pending flags) and waits (each entry's
 * waiters in merge order); retiring an entry moves the last live one into
 * its slot.  The vacated slot takes the spare waiter buffer, and the
 * retired entry's buffer becomes the spare once its waiters have fired. */
typedef struct {
    PyObject *file; /* the MshrFile (its on_merge) */
    int64_t *lines, *ctr;
    unsigned char *stores;
    WaitList *waits, spare;
    int64_t cap;
} Mshr;

/* The live entry of line, or -1. */
static int64_t mshr_find(const Mshr *m, int64_t line)
{
    int64_t i, n = m->ctr[M_OCCUPANCY];
    for (i = 0; i < n; i++)
        if (m->lines[i] == line)
            return i;
    return -1;
}

/* A new entry for line with its first waiter (none when w is NULL). */
static int mshr_alloc(Mshr *m, int64_t line, const Waiter *w, int store)
{
    int64_t i = m->ctr[M_OCCUPANCY];
    if (w != NULL && waits_add(&m->waits[i], w->obj, w->kind, w->slot) < 0)
        return -1;
    m->lines[i] = line;
    m->stores[i] = (unsigned char)store;
    m->ctr[M_OCCUPANCY] = ++i;
    m->ctr[M_ALLOCATIONS]++;
    if (i > m->ctr[M_PEAK])
        m->ctr[M_PEAK] = i;
    return 0;
}

/* Retire entry i; its waiters move to *fired (the caller fires them and
 * then hands the buffer to mshr_recycle). */
static void mshr_retire(Mshr *m, int64_t i, WaitList *fired)
{
    int64_t last = m->ctr[M_OCCUPANCY] - 1;
    *fired = m->waits[i];
    if (i != last) {
        m->waits[i] = m->waits[last];
        m->lines[i] = m->lines[last];
        m->stores[i] = m->stores[last];
    }
    m->waits[last] = m->spare;
    m->spare.v = NULL;
    m->spare.n = m->spare.cap = 0;
    m->lines[last] = 0;
    m->stores[last] = 0;
    m->ctr[M_OCCUPANCY] = last;
}

static void mshr_recycle(Mshr *m, WaitList *fired)
{
    waits_drop(fired);
    if (m->spare.v == NULL)
        m->spare = *fired;
    else
        PyMem_Free(fired->v);
}

/* One core's side of the hierarchy: its L1 and its MSHR file. */
typedef struct {
    Cache l1;
    Mshr mshr;
} CoreSide;

struct Hier {
    PyObject_HEAD
    long long l2_outstanding, writebacks;
    char space_watch_armed;
    PyObject *controller;
    PyObject *enqueue, *on_fill, *on_space_freed, *emit_writeback;
    /* the cores stalled on a structural hazard */
    FanOut unblock;
    SpanView spans;
    Cache l2;
    int64_t *l2_misses, *demand;
    CoreSide *cores;
    Py_ssize_t ncores;
    int64_t l2_mshr_cap;
    Pins pins;
};

static PyTypeObject HierType;

static int hier_core(Hier *h, int64_t core_id, CoreSide **out)
{
    if (h->cores == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the hierarchy is not bound");
        return -1;
    }
    if (core_id < 0 || core_id >= h->ncores)
        return index_error("core id");
    *out = &h->cores[core_id];
    return 0;
}

/* The structural-stall test of a miss with nothing in flight to merge
 * onto: a full MSHR file, full L2 MSHRs or a full controller buffer.
 * The core kernel's blocked-retry probe asks the same question.  1, 0 or
 * -1. */
static int mshr_blocked(Hier *h, CoreSide *k)
{
    int rc;
    if (k->mshr.ctr[M_OCCUPANCY] >= k->mshr.cap
        || h->l2_outstanding >= h->l2_mshr_cap)
        return 1;
    rc = ctrl_can_accept((Ctrl *)h->controller);
    return rc < 0 ? -1 : !rc;
}

/* Would a miss of line from this core come back BLOCKED right now?
 * Membership tests only.  1, 0 or -1. */
static int hier_would_block(Hier *h, CoreSide *k, int64_t line)
{
    if (mshr_find(&k->mshr, line) >= 0)
        return 0; /* merges */
    return mshr_blocked(h, k);
}

/* Register a stalled core's callback for the next structural release and,
 * unless it is armed already, arm the one controller-space watch
 * (_on_space_freed). */
static int hier_wait_unblock(Hier *h, PyObject *callback)
{
    if (fan_out_add(&h->unblock, callback) < 0)
        return -1;
    if (h->space_watch_armed)
        return 0;
    if (h->on_space_freed == NULL)
        return closed("hierarchy");
    h->space_watch_armed = 1;
    return ctrl_wait_for_space((Ctrl *)h->controller, h->on_space_freed);
}

/* A read offered to the span collector (which offers writebacks itself,
 * SpanCollector.offer_write): the core's stall stamp is popped (its
 * cycle is the span's first attempt when it stamps this line), the offer
 * counted, and every sample_every-th offer makes a RequestSpan,
 * registered in flight, unless max_spans spans have completed (then it
 * counts in dropped). */
static int offer_read(Hier *h, int64_t core_id, int64_t line, int64_t now,
                      Request *r)
{
    SpanView *s = &h->spans;
    PyObject *v[4], *span = NULL, *done, *key;
    int64_t first = -1, max, dropped;
    int i, rc;
    if (core_id < s->ncores) {
        int64_t *stamp = s->stamps + 2 * core_id;
        if (stamp[1] == line)
            first = stamp[0];
        stamp[1] = -1;
    }
    s->c[SP_OFFERED]++;
    if (++s->c[SP_COUNT] < s->every)
        return 0;
    s->c[SP_COUNT] = 0;
    if ((done = PyObject_GetAttr(s->obj, s_completed)) == NULL)
        return -1;
    rc = attr_i64(s->obj, s_max_spans, &max);
    if (rc == 0 && PyObject_Length(done) >= max) {
        Py_DECREF(done);
        return attr_i64(s->obj, s_dropped, &dropped) < 0 ? -1
            : set_attr_i64(s->obj, s_dropped, dropped + 1);
    }
    Py_DECREF(done);
    if (rc < 0 || PyErr_Occurred())
        return -1;
    if (span_cls == NULL) {
        PyObject *mod = PyImport_ImportModule("repro.telemetry.spans");
        if (mod == NULL)
            return -1;
        span_cls = PyObject_GetAttrString(mod, "RequestSpan");
        Py_DECREF(mod);
        if (span_cls == NULL)
            return -1;
    }
    v[0] = PyLong_FromLongLong(core_id);
    v[1] = PyLong_FromLongLong(line);
    v[2] = s_read;
    v[3] = PyLong_FromLongLong(now);
    if (v[0] && v[1] && v[3])
        span = PyObject_Vectorcall(span_cls, v, 4, NULL);
    rc = span == NULL ? -1 : 0;
    if (rc == 0 && first >= 0)
        rc = set_attr_i64(span, s_first_attempt, first);
    if (rc == 0) {
        key = v[0] && v[1] ? PyTuple_Pack(2, v[0], v[1]) : NULL;
        rc = key == NULL ? -1 : PyDict_SetItem(s->inflight, key, span);
        Py_XDECREF(key);
    }
    for (i = 0; i < 4; i++)
        if (i != 2)
            Py_XDECREF(v[i]);
    if (rc < 0) {
        Py_XDECREF(span);
        return -1;
    }
    Py_XSETREF(r->span, span);
    return 0;
}

static int ctrl_enqueue(Ctrl *c, Request *r, int64_t now);
static PyObject *ctrl_enqueue_py(Ctrl *c, PyObject *const *args,
                                 Py_ssize_t nargs);

/* req into the controller through the enqueue callable bound at _bind
 * (the controller's own enqueue runs its body): 1, 0 (full) or -1. */
static int hier_enqueue(Hier *h, Request *r, int64_t now)
{
    PyObject *fn = h->enqueue, *k, *argv[2], *ok;
    int rc;
    Py_INCREF(fn);
    if ((k = own(fn, ENTRY(ctrl_enqueue_py))) != NULL) {
        rc = ctrl_enqueue((Ctrl *)k, r, now);
    } else if ((argv[1] = PyLong_FromLongLong(now)) == NULL) {
        rc = -1;
    } else {
        argv[0] = (PyObject *)r;
        ok = PyObject_Vectorcall(fn, argv, 2, NULL);
        Py_DECREF(argv[1]);
        rc = ok == NULL ? -1 : PyObject_IsTrue(ok);
        Py_XDECREF(ok);
    }
    Py_DECREF(fn);
    return rc;
}

/* One reference that missed both caches (line aligned), its data waiter
 * w (NULL: none).  *result is PENDING (a new memory request) or MERGED
 * (joined an in-flight miss), for both of which w fires when the data
 * returns, or BLOCKED (the core registers for an unblock and retries). */
static int hier_miss(Hier *h, int64_t core_id, int64_t line, int is_write,
                     int64_t now, const Waiter *w, long *result)
{
    CoreSide *k;
    Request *r;
    int64_t i;
    int rc;

    if (hier_core(h, core_id, &k) < 0)
        return -1;
    if ((i = mshr_find(&k->mshr, line)) >= 0) {
        /* Merge onto the in-flight miss. */
        PyObject *on_merge, *argv[2];
        if (w != NULL
            && waits_add(&k->mshr.waits[i], w->obj, w->kind, w->slot) < 0)
            return -1;
        k->mshr.ctr[M_MERGES]++;
        if (is_write)
            k->mshr.stores[i] = 1;
        if ((on_merge = PyObject_GetAttr(k->mshr.file, s_on_merge)) == NULL)
            return -1;
        rc = 0;
        if (on_merge != Py_None) {
            argv[0] = PyLong_FromLongLong(line);
            argv[1] = PyLong_FromLongLong(now);
            rc = argv[0] && argv[1]
                ? call_drop(PyObject_Vectorcall(on_merge, argv, 2, NULL)) : -1;
            Py_XDECREF(argv[0]);
            Py_XDECREF(argv[1]);
        }
        Py_DECREF(on_merge);
        *result = MERGED;
        return rc;
    }
    if ((rc = mshr_blocked(h, k)) < 0)
        return -1;
    if (rc) {
        *result = BLOCKED;
        return 0;
    }
    /* -- a new MSHR entry -- */
    if (mshr_alloc(&k->mshr, line, w, is_write) < 0)
        return -1;
    h->l2_outstanding++;
    h->l2_misses[core_id]++;
    if (h->on_fill == NULL || h->enqueue == NULL)
        return closed("hierarchy");
    if ((r = new_request(line, core_id, 0, now, h->on_fill)) == NULL)
        return -1;
    if (h->spans.obj != NULL && offer_read(h, core_id, line, now, r) < 0)
        rc = -1;
    else if ((rc = hier_enqueue(h, r, now)) == 0) {
        PyErr_SetString(PyExc_AssertionError, "can_accept() checked above");
        rc = -1;
    }
    Py_DECREF(r);
    *result = PENDING;
    return rc < 0 ? -1 : 0;
}

/* _after_l2_miss(core_id, line, is_write, now, waiter) -> int: a miss
 * with a Python waiter, fn(line, now) or a (method, token) pair that
 * fires as method(token, now), or None.  The core kernel's miss path
 * runs hier_miss directly. */
static PyObject *hier_after_l2_miss(Hier *h, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    int64_t core_id, line, now;
    int is_write;
    long result;
    Waiter w = {NULL, 0, W_CALL};
    if (nargs_are(nargs, 5) < 0 || as_i64(args[0], &core_id) < 0
        || as_i64(args[1], &line) < 0 || as_i64(args[3], &now) < 0
        || (is_write = truthy(args[2])) < 0)
        return NULL;
    w.obj = args[4];
    if (hier_miss(h, core_id, line, is_write, now,
                  args[4] != Py_None ? &w : NULL, &result) < 0)
        return NULL;
    return PyLong_FromLong(result);
}

/* A dirty line leaves for memory through the Python writeback path,
 * billed to core. */
static int writeback(Hier *h, int64_t core, int64_t addr, int64_t now)
{
    PyObject *argv[3];
    int rc;
    if (h->emit_writeback == NULL)
        return closed("hierarchy");
    argv[0] = PyLong_FromLongLong(core);
    argv[1] = PyLong_FromLongLong(addr);
    argv[2] = PyLong_FromLongLong(now);
    rc = argv[0] && argv[1] && argv[2]
        ? call_drop(PyObject_Vectorcall(h->emit_writeback, argv, 3, NULL)) : -1;
    Py_XDECREF(argv[0]);
    Py_XDECREF(argv[1]);
    Py_XDECREF(argv[2]);
    return rc;
}

/* Install line in core's L1 with dirty (an L2 hit or a fill).  A dirty L1
 * victim dirties the L2 copy in place; if the L2 lost the line meanwhile
 * (non-inclusive drift), it is written back to memory directly. */
static int l1_install(Hier *h, CoreSide *k, int64_t core, int64_t line,
                      int dirty, int64_t now)
{
    Victim v;
    int64_t addr;
    if (!cache_install(&k->l1, line >> k->l1.off, dirty, 1, 0, &v)
        || !v.dirty)
        return 0;
    addr = v.tag << k->l1.off;
    if (cache_set_dirty(&h->l2, addr >> h->l2.off))
        return 0;
    return writeback(h, core, addr, now);
}

/* An L2 victim: invalidate its owner's L1 copy (merging that copy's
 * dirtiness), and write it back, billed to the owner, if dirty.  Every
 * L2 fill sets the owner column, so every victim has one. */
static int l2_evicted(Hier *h, const Victim *v, int64_t now)
{
    int64_t addr = v->tag << h->l2.off;
    int dirty = v->dirty, l1_dirty = 0;
    if (v->owner >= 0 && v->owner < h->ncores) {
        Cache *l1 = &h->cores[v->owner].l1;
        if (cache_invalidate(l1, addr >> l1->off, &l1_dirty) && l1_dirty)
            dirty = 1;
    }
    return dirty ? writeback(h, v->owner, addr, now) : 0;
}

static int core_load_ready_at(Core *c, int64_t token, int64_t now);
static int core_store_at(Core *c, int64_t now);

/* Fire one MSHR waiter of a fill of line: a kernel core's load or store
 * waiter runs its body; a Python one is called as method(token, now)
 * for a (method, token) pair, else as fn(line, now).  box holds line
 * and now once boxed. */
static int fire_fill(const Waiter *w, int64_t line, int64_t now,
                     PyObject *box[2])
{
    PyObject *fn = w->obj, *argv[2];
    int rc;
    if (w->kind == W_LOAD)
        return core_load_ready_at((Core *)fn, w->slot, now);
    if (w->kind == W_STORE)
        return core_store_at((Core *)fn, now);
    if (PyTuple_CheckExact(fn) && PyTuple_GET_SIZE(fn) == 2) {
        argv[0] = PyTuple_GET_ITEM(fn, 1);
        fn = PyTuple_GET_ITEM(fn, 0);
    } else if ((argv[0] = boxed(&box[0], line)) == NULL) {
        return -1;
    }
    if ((argv[1] = boxed(&box[1], now)) == NULL)
        return -1;
    Py_INCREF(fn);
    rc = call_drop(PyObject_Vectorcall(fn, argv, 2, NULL));
    Py_DECREF(fn);
    return rc;
}

/* Read data of r returned from DRAM.  Install the line in the L2 (a
 * resident line keeps its dirty flag) and the requester's L1 (dirty when
 * a store merged onto the miss), retire the MSHR entry and fire its
 * waiters in merge order, then the cores stalled on a structural hazard. */
static int hier_fill(Hier *h, Request *r, int64_t now)
{
    PyObject *box[2] = {NULL, NULL}, *key = NULL;
    int64_t line = r->addr, i;
    WaitList fired;
    Victim v;
    CoreSide *k;
    int dirty, rc = -1;
    Py_ssize_t j;

    if (hier_core(h, r->core_id, &k) < 0)
        return -1;
    if ((i = mshr_find(&k->mshr, line)) < 0) {
        if (boxed(&box[0], line) != NULL)
            PyErr_SetObject(PyExc_KeyError, box[0]);
        goto done;
    }
    dirty = k->mshr.stores[i];
    /* -- L2 install -- */
    if (cache_install(&h->l2, line >> h->l2.off, 0, 0, r->core_id, &v)
        && l2_evicted(h, &v, now) < 0)
        goto done;
    if (l1_install(h, k, r->core_id, line, dirty, now) < 0)
        goto done;
    h->l2_outstanding--;
    /* -- MSHR retirement (the writeback path above may have moved the
     * entry) -- */
    if ((i = mshr_find(&k->mshr, line)) < 0) {
        PyErr_SetString(PyExc_RuntimeError, "an MSHR entry vanished");
        goto done;
    }
    mshr_retire(&k->mshr, i, &fired);
    for (j = 0, rc = 0; j < fired.n && rc == 0; j++)
        rc = fire_fill(&fired.v[j], line, now, box);
    mshr_recycle(&k->mshr, &fired);
    if (rc < 0)
        goto done;
    rc = -1;
    /* The collector tracks merges only onto sampled reads: the fill ends
     * the read's registration. */
    if (r->span != NULL && r->span != Py_None && h->spans.obj != NULL) {
        if ((key = Py_BuildValue("(LL)", (long long)r->core_id,
                                 (long long)line)) == NULL)
            goto done;
        if (PyDict_DelItem(h->spans.inflight, key) < 0) {
            if (!PyErr_ExceptionMatches(PyExc_KeyError))
                goto done;
            PyErr_Clear();
        }
    }
    rc = fan_out(&h->unblock, now);
done:
    Py_XDECREF(box[0]);
    Py_XDECREF(box[1]);
    Py_XDECREF(key);
    return rc;
}

/* _on_fill(req, now): read data returned from DRAM (every read's
 * on_complete; delivery runs hier_fill directly). */
static PyObject *hier_on_fill(Hier *h, PyObject *const *args, Py_ssize_t nargs)
{
    Request *r;
    int64_t now;
    if (nargs_are(nargs, 2) < 0 || (r = as_request(args[0])) == NULL
        || as_i64(args[1], &now) < 0)
        return NULL;
    return done_or_null(hier_fill(h, r, now));
}

/* _fill_l1(core_id, line, dirty, now): install line in core_id's L1 (the
 * core kernel's L2 hit path, which runs l1_install directly). */
static PyObject *hier_fill_l1(Hier *h, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t core_id, line, now;
    int dirty;
    CoreSide *k;
    if (nargs_are(nargs, 4) < 0 || as_i64(args[0], &core_id) < 0
        || as_i64(args[1], &line) < 0 || (dirty = truthy(args[2])) < 0
        || as_i64(args[3], &now) < 0 || hier_core(h, core_id, &k) < 0)
        return NULL;
    return done_or_null(l1_install(h, k, core_id, line, dirty, now));
}

/* A controller buffer slot freed; wake every core stalled on a structural
 * hazard (the hottest wake fan-out after fills). */
static int hier_space_at(Hier *h, int64_t now)
{
    h->space_watch_armed = 0;
    return fan_out(&h->unblock, now);
}

/* _on_space_freed(now) */
static PyObject *hier_on_space_freed(Hier *h, PyObject *arg)
{
    int64_t now;
    if (as_i64(arg, &now) < 0)
        return NULL;
    return done_or_null(hier_space_at(h, now));
}

/* One MSHR file's table and counters, and an empty waiter list per
 * entry. */
static int mshr_bind(Mshr *m, Pins *p, PyObject *file)
{
    m->file = file;
    Py_INCREF(file);
    if (attr_i64(file, s_capacity, &m->cap) < 0
        || (m->lines = pin(p, file, s_lines, 8, m->cap)) == NULL
        || (m->stores = pin(p, file, s_stores, 1, m->cap)) == NULL
        || (m->ctr = pin_counters(p, file, M_NFIELDS)) == NULL)
        return -1;
    if ((m->waits = PyMem_Calloc(m->cap, sizeof(WaitList))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* _bind(...): take the storage the hierarchy walks and the callables it
 * calls out through.  Called once, by CacheHierarchy.__init__. */
static PyObject *hier_bind(Hier *h, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "controller", "l1d", "l2", "mshrs", "l2_mshr_cap", "owner",
        "l2_misses", "demand_accesses", "enqueue", "on_fill",
        "on_space_freed", "emit_writeback", NULL};
    PyObject *ctrl, *l1d, *l2, *mshrs, *owner, *misses, *demand, *enq;
    PyObject *fill, *freed, *wb;
    long long cap;
    Py_ssize_t i, n;
    Pins *p = &h->pins;

    if (h->cores != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the hierarchy is already bound");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OOOOLOOOOOOO", kwlist, &ctrl, &l1d, &l2, &mshrs,
            &cap, &owner, &misses, &demand, &enq, &fill, &freed, &wb))
        return NULL;
    if (!PyObject_TypeCheck(ctrl, &CtrlType) || !PyList_CheckExact(l1d)
        || !PyList_CheckExact(mshrs)
        || PyList_GET_SIZE(l1d) != PyList_GET_SIZE(mshrs)) {
        PyErr_SetString(PyExc_TypeError, "bad hierarchy parts");
        return NULL;
    }
    n = PyList_GET_SIZE(l1d);
    KEEP(h, controller, ctrl);
    KEEP(h, enqueue, enq);
    KEEP(h, on_fill, fill);
    KEEP(h, on_space_freed, freed);
    KEEP(h, emit_writeback, wb);
    h->l2_mshr_cap = cap;
    if (cache_bind(&h->l2, p, l2) < 0
        || (h->l2.owner = pin(p, owner, NULL, 8,
                              (h->l2.mask + 1) * h->l2.assoc)) == NULL
        || (h->l2_misses = pin(p, misses, NULL, 8, n)) == NULL
        || (h->demand = pin(p, demand, NULL, 8, n)) == NULL)
        return NULL;
    if ((h->cores = PyMem_New(CoreSide, n ? n : 1)) == NULL)
        return PyErr_NoMemory();
    memset(h->cores, 0, sizeof(CoreSide) * (n ? n : 1));
    h->ncores = n;
    for (i = 0; i < n; i++) {
        CoreSide *k = &h->cores[i];
        if (cache_bind(&k->l1, p, PyList_GET_ITEM(l1d, i)) < 0
            || mshr_bind(&k->mshr, p, PyList_GET_ITEM(mshrs, i)) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* Drop every waiter the hierarchy holds: the stalled cores' and each
 * MSHR entry's. */
static void hier_drop_waiters(Hier *h)
{
    Py_ssize_t i;
    int64_t j;
    waits_drop(&h->unblock.live);
    for (i = 0; h->cores != NULL && i < h->ncores; i++) {
        Mshr *m = &h->cores[i].mshr;
        for (j = 0; m->waits != NULL && j < m->cap; j++)
            waits_drop(&m->waits[j]);
    }
}

/* _unbind(): drop the callables and waiters that tie the hierarchy, its
 * controller and the cores into reference cycles.  The MSHR entries keep
 * their lines and flags; their waiters go. */
static PyObject *hier_unbind(Hier *h, PyObject *Py_UNUSED(ignored))
{
    hier_drop_waiters(h);
    Py_CLEAR(h->enqueue);
    Py_CLEAR(h->on_fill);
    Py_CLEAR(h->on_space_freed);
    Py_CLEAR(h->emit_writeback);
    Py_RETURN_NONE;
}

#define HIER_FIELDS(X) \
    X(spans.obj) X(spans.inflight) X(controller) X(enqueue) X(on_fill) \
    X(on_space_freed) X(emit_writeback)

static int hier_traverse(Hier *h, visitproc visit, void *arg)
{
    Py_ssize_t i;
    int64_t j;
#define VISIT(f) Py_VISIT(h->f);
    HIER_FIELDS(VISIT)
#undef VISIT
    if (waits_traverse(&h->unblock.live, visit, arg) < 0)
        return -1;
    for (i = 0; h->cores != NULL && i < h->ncores; i++) {
        Mshr *m = &h->cores[i].mshr;
        Py_VISIT(m->file);
        for (j = 0; m->waits != NULL && j < m->cap; j++)
            if (waits_traverse(&m->waits[j], visit, arg) < 0)
                return -1;
    }
    return 0;
}

static int hier_clear(Hier *h)
{
    Py_ssize_t i;
#define CLEAR(f) Py_CLEAR(h->f);
    HIER_FIELDS(CLEAR)
#undef CLEAR
    hier_drop_waiters(h);
    for (i = 0; h->cores != NULL && i < h->ncores; i++)
        Py_CLEAR(h->cores[i].mshr.file);
    return 0;
}

static void hier_dealloc(Hier *h)
{
    Py_ssize_t i;
    int64_t j;
    PyObject_GC_UnTrack(h);
    hier_clear(h);
    fan_out_free(&h->unblock);
    for (i = 0; h->cores != NULL && i < h->ncores; i++) {
        Mshr *m = &h->cores[i].mshr;
        for (j = 0; m->waits != NULL && j < m->cap; j++)
            waits_free(&m->waits[j]);
        waits_free(&m->spare);
        PyMem_Free(m->waits);
    }
    unpin(&h->pins);
    unpin(&h->spans.pins);
    PyMem_Free(h->cores);
    Py_TYPE(h)->tp_free((PyObject *)h);
}

#define HMEMBER(name, type, field, flags, doc) \
    {name, type, offsetof(Hier, field), flags, doc}

static PyMemberDef hier_members[] = {
    HMEMBER("_l2_outstanding", T_LONGLONG, l2_outstanding, 0,
            "L2 misses in flight"),
    HMEMBER("writebacks", T_LONGLONG, writebacks, 0,
            "dirty lines written back to memory"),
    HMEMBER("_space_watch_armed", T_BOOL, space_watch_armed, 0,
            "whether a controller-space watch is armed (one at a time)"),
    HMEMBER("controller", T_OBJECT, controller, READONLY, NULL),
    {NULL}
};

static PyObject *hier_get_spans(Hier *h, void *Py_UNUSED(closure))
{
    return spans_get(&h->spans);
}

static int hier_set_spans(Hier *h, PyObject *v, void *Py_UNUSED(closure))
{
    return spans_set(&h->spans, v);
}

static PyGetSetDef hier_getset[] = {
    {"spans", (getter)hier_get_spans, (setter)hier_set_spans,
     "request-lifecycle span collector, or None", NULL},
    {NULL}
};

static PyMethodDef hier_methods[] = {
    {"_after_l2_miss", (PyCFunction)(void (*)(void))hier_after_l2_miss,
     METH_FASTCALL,
     "_after_l2_miss(core_id, line, is_write, now, waiter) -> int"},
    {"_on_fill", (PyCFunction)(void (*)(void))hier_on_fill, METH_FASTCALL,
     "_on_fill(req, now): read data returned from DRAM"},
    {"_fill_l1", (PyCFunction)(void (*)(void))hier_fill_l1, METH_FASTCALL,
     "_fill_l1(core_id, line, dirty, now): install a line in an L1"},
    {"_on_space_freed", (PyCFunction)hier_on_space_freed, METH_O,
     "_on_space_freed(now): a controller buffer slot freed"},
    {"_bind", (PyCFunction)(void (*)(void))hier_bind,
     METH_VARARGS | METH_KEYWORDS, NULL},
    {"_unbind", (PyCFunction)hier_unbind, METH_NOARGS, NULL},
    {NULL}
};

static PyTypeObject HierType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._core.HierarchyKernel",
    .tp_basicsize = sizeof(Hier),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The cache hierarchy's miss and fill paths; CacheHierarchy's "
              "base.",
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor)hier_dealloc,
    .tp_traverse = (traverseproc)hier_traverse,
    .tp_clear = (inquiry)hier_clear,
    .tp_methods = hier_methods,
    .tp_members = hier_members,
    .tp_getset = hier_getset,
};

/* ======================================================================
 * TraceStream
 * ====================================================================== */

/* One column of a stream's ops, int64 or byte items, which Python reads
 * through a memoryview.  A live view pins the items it covers (the first
 * len at its export): growing the column past alloc while it is viewed,
 * or overwriting it, hands the stream a fresh column, and the old one
 * lives on with its views. */
typedef struct {
    PyObject_HEAD
    char *buf;
    Py_ssize_t len, alloc, exports, itemsize;
} Column;

static int column_getbuffer(Column *col, Py_buffer *view, int flags)
{
    if (PyBuffer_FillInfo(view, (PyObject *)col, col->buf,
                          col->len * col->itemsize, 1, flags) < 0)
        return -1;
    col->exports++;
    return 0;
}

static void column_releasebuffer(Column *col, Py_buffer *Py_UNUSED(view))
{
    col->exports--;
}

static void column_dealloc(Column *col)
{
    PyMem_Free(col->buf);
    PyObject_Free(col);
}

static PyBufferProcs column_as_buffer = {
    .bf_getbuffer = (getbufferproc)column_getbuffer,
    .bf_releasebuffer = (releasebufferproc)column_releasebuffer,
};

static PyTypeObject ColumnType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._core.Column",
    .tp_basicsize = sizeof(Column),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One column of a TraceStream's ops (read it as a memoryview).",
    .tp_dealloc = (destructor)column_dealloc,
    .tp_as_buffer = &column_as_buffer,
};

static Column *column_new(Py_ssize_t itemsize, Py_ssize_t alloc)
{
    Column *col = PyObject_New(Column, &ColumnType);
    if (col == NULL)
        return NULL;
    col->len = col->exports = 0;
    col->itemsize = itemsize;
    col->alloc = alloc;
    if ((col->buf = PyMem_Malloc(alloc * itemsize)) == NULL) {
        Py_DECREF(col);
        PyErr_NoMemory();
        return NULL;
    }
    return col;
}

/* A column as Python reads it: a memoryview of int64 or of bytes. */
static PyObject *column_view(Column *col)
{
    PyObject *mv = PyMemoryView_FromObject((PyObject *)col), *typed;
    if (mv == NULL || col->itemsize == 1)
        return mv;
    typed = PyObject_CallMethod(mv, "cast", "s", "q");
    Py_DECREF(mv);
    return typed;
}

/* The ops a reader holds, [base, end): their gaps, addresses and store
 * flags from index 0. */
typedef struct {
    const int64_t *gaps, *addrs;
    const unsigned char *writes;
    int64_t base, end;
} Feed;

/* One application's reference stream: the draw loop's knobs and state,
 * bound to its numpy bit generator, and the ops it holds.  A recording
 * (limit > 0) holds every op from 0 and grows a chunk at a time up to
 * limit ops; a window (limit 0) holds the last chunk it drew. */
typedef struct {
    PyObject_HEAD
    Feed feed;
    Column *col[3]; /* gaps, addresses, store flags */
    int64_t limit, chunk;
    /* the knobs (synthetic.py's module docstring) */
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
    /* the state */
    int64_t stream_idx, burst_left;
    int64_t *streams; /* n_streams pairs: next line, steps left */
    PyObject *bitgen, *lock;
    bitgen_t *bg;
} Stream;

/* Generator.integers(0, n); n == 1 draws nothing. */
static int64_t below(bitgen_t *bg, int64_t n)
{
    uint64_t v;
    random_bounded_uint64_fill(bg, 0, (uint64_t)(n - 1), 1, false, &v);
    return (int64_t)v;
}

/* Point one array stream at a fresh region.  The sub-stride offset picks
 * the (channel, bank) it lives in; without it every stream would start
 * at line 0 of its region and alias onto channel 0 / bank 0. */
static void reseat(Stream *s, int64_t *a)
{
    int64_t region = below(s->bg, s->stream_regions);
    int64_t span = s->stride < s->stream_run ? s->stride : s->stream_run;
    int64_t steps = s->stream_run / s->stride;
    a[0] = s->stream_base + region * s->stream_run + below(s->bg, span);
    a[1] = steps > 1 ? steps : 1;
}

/* A line expected to miss the L2: the next step of the round-robin
 * array stream, or a random chase line. */
static int64_t miss_line(Stream *s)
{
    if (random_standard_uniform(s->bg) < s->seq_frac) {
        int64_t *a = s->streams + 2 * s->stream_idx;
        int64_t line;
        s->stream_idx = (s->stream_idx + 1) % s->n_streams;
        if (a[1] <= 0)
            reseat(s, a);
        line = a[0];
        a[0] += s->stride;
        a[1] -= 1;
        return line;
    }
    return s->chase_base + below(s->bg, s->chase_lines);
}

/* Draw ops first .. first + n - 1 of the stream.  Every draw goes through
 * numpy's own distribution functions on the generator's bit generator,
 * in the order and with the arguments Generator.geometric, .random and
 * .integers would use, so the stream is bit-identical to drawing op by
 * op in Python (tests/test_tracegen.py keeps that loop as the
 * reference).  Built without -ffast-math and with -ffp-contract=off:
 * burst_start_p + l2_frac must round as Python rounds it. */
static void draw(Stream *s, int64_t first, int64_t n, int64_t *gap,
                 int64_t *addr, unsigned char *is_write)
{
    bitgen_t *bg = s->bg;
    int64_t i = 0, prologue = s->hot_lines + s->l2_lines;
    /* The prologue loads every hot line, then every L2-set line, once,
     * so the caches warm inside the warm-up window. */
    for (; i < n && first + i < prologue; i++) {
        int64_t k = first + i;
        int64_t line = k < s->hot_lines ? s->hot_base + k
                                        : s->l2_base + (k - s->hot_lines);
        gap[i] = random_geometric(bg, s->gap_p) - 1;
        addr[i] = s->base_addr + line * s->line_bytes;
        is_write[i] = 0;
    }
    for (; i < n; i++) {
        int64_t line;
        if (s->burst_left > 0) {
            /* Inside a miss burst: gaps of mean 1 keep the misses in one
             * ROB window, so they overlap. */
            s->burst_left -= 1;
            gap[i] = random_geometric(bg, 0.5) - 1;
            line = miss_line(s);
        } else {
            double roll;
            gap[i] = random_geometric(bg, s->gap_p) - 1;
            roll = random_standard_uniform(bg);
            if (roll < s->burst_start_p) {
                /* This op is the first miss of a new burst. */
                s->burst_left = random_geometric(bg, s->burst_len_p) - 1;
                line = miss_line(s);
            } else if (roll < s->burst_start_p + s->l2_frac) {
                line = s->l2_base + below(bg, s->l2_lines);
            } else {
                line = s->hot_base + below(bg, s->hot_lines);
            }
        }
        addr[i] = s->base_addr + line * s->line_bytes;
        is_write[i] = random_standard_uniform(bg) < s->store_frac;
    }
}

/* Make each column hold need items with its first keep kept and the rest
 * writable.  A recording grows as array('q') does, to at most limit. */
static int stream_room(Stream *s, int64_t keep, int64_t need)
{
    int i;
    for (i = 0; i < 3; i++) {
        Column *col = s->col[i], *fresh;
        Py_ssize_t alloc = need;
        if (need <= col->alloc && (col->exports == 0 || keep >= col->len))
            continue;
        if (s->limit) {
            alloc = need + (need >> 4) + 7;
            if (alloc > s->limit)
                alloc = s->limit;
        }
        if (col->exports == 0) {
            char *buf = PyMem_Realloc(col->buf, alloc * col->itemsize);
            if (buf == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            col->buf = buf;
            col->alloc = alloc;
            continue;
        }
        if ((fresh = column_new(col->itemsize, alloc)) == NULL)
            return -1;
        memcpy(fresh->buf, col->buf, keep * col->itemsize);
        fresh->len = keep;
        Py_SETREF(s->col[i], fresh);
    }
    s->feed.gaps = (const int64_t *)s->col[0]->buf;
    s->feed.addrs = (const int64_t *)s->col[1]->buf;
    s->feed.writes = (const unsigned char *)s->col[2]->buf;
    return 0;
}

/* Draw the next n ops into the columns and publish them: a recording
 * appends them, a window replaces its ops with them.  The caller holds
 * the bit generator's lock. */
static int stream_fill(Stream *s, int64_t n)
{
    int64_t at = s->limit ? s->feed.end : 0, i;
    int64_t *gap, *addr;
    if (stream_room(s, at, at + n) < 0)
        return -1;
    gap = (int64_t *)s->col[0]->buf + at;
    addr = (int64_t *)s->col[1]->buf + at;
    draw(s, s->feed.end, n, gap, addr, (unsigned char *)s->col[2]->buf + at);
    for (i = 0; i < n; i++)
        if ((gap[i] | addr[i]) < 0) {
            PyErr_SetString(PyExc_ValueError,
                            "the trace kernel drew a negative gap or address");
            return -1;
        }
    for (i = 0; i < 3; i++)
        s->col[i]->len = at + n;
    if (!s->limit)
        s->feed.base = s->feed.end;
    s->feed.end += n;
    return 0;
}

/* Take the bit generator's lock, as numpy's own methods do; an acquire
 * that waits lets other threads run, so read the stream's frontier only
 * once it is held. */
static int bg_lock(Stream *s)
{
    return call_drop(PyObject_CallMethodNoArgs(s->lock, s_acquire));
}

/* Release it after draws that returned rc, keeping their exception. */
static int bg_unlock(Stream *s, int rc)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if (call_drop(PyObject_CallMethodNoArgs(s->lock, s_release)) < 0) {
        if (type == NULL)
            return -1;
        PyErr_Clear();
    }
    PyErr_Restore(type, value, tb);
    return rc;
}

/* Draw until the stream holds op pos where it can: a recording grows a
 * chunk at a time up to its limit, and a window moves on a chunk when pos
 * is the op just past it.  Nothing calls into Python between reading the
 * frontier and publishing the new end, so threads replaying one
 * recording each see whole chunks.  0 whether or not the stream then
 * holds pos, -1 with an exception. */
static int stream_serve(Stream *s, int64_t pos)
{
    int rc = 0;
    if (pos < s->feed.end)
        return 0;
    if (bg_lock(s) < 0)
        return -1;
    while (rc == 0 && pos >= s->feed.end) {
        int64_t n = s->chunk;
        if (s->limit) {
            if (n > s->limit - s->feed.end)
                n = s->limit - s->feed.end;
            if (n <= 0)
                break;
        } else if (pos != s->feed.end) {
            break;
        }
        rc = stream_fill(s, n);
    }
    return bg_unlock(s, rc);
}

/* (gaps, addresses, store flags, base) of the ops the stream holds. */
static PyObject *stream_view(Stream *s)
{
    PyObject *v[3] = {NULL, NULL, NULL}, *r = NULL;
    int i;
    for (i = 0; i < 3; i++)
        if ((v[i] = column_view(s->col[i])) == NULL)
            goto done;
    r = Py_BuildValue("(OOOL)", v[0], v[1], v[2], (long long)s->feed.base);
done:
    for (i = 0; i < 3; i++)
        Py_XDECREF(v[i]);
    return r;
}

static void stream_dealloc(Stream *s)
{
    int i;
    for (i = 0; i < 3; i++)
        Py_XDECREF(s->col[i]);
    Py_XDECREF(s->bitgen);
    Py_XDECREF(s->lock);
    PyMem_Free(s->streams);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

/* TraceStream(bit_generator, *, limit, chunk, <knobs>): the generator's
 * capsule gives the draw loop its bitgen_t, and the array streams are
 * seated (two integers draws each) before any op is drawn. */
static PyObject *stream_new(PyTypeObject *type, PyObject *args,
                            PyObject *kwds)
{
    static char *kwlist[] = {
        "bit_generator", "limit", "chunk", "gap_p", "burst_start_p",
        "burst_len_p", "l2_frac", "seq_frac", "store_frac", "base_addr",
        "line_bytes", "hot_base", "hot_lines", "l2_base", "l2_lines",
        "chase_base", "chase_lines", "stream_base", "stream_regions",
        "stream_run", "stride", "n_streams", NULL};
    long long limit, chunk, v[13];
    double d[6];
    PyObject *bitgen, *capsule;
    Stream *s;
    int64_t i;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O$LLddddddLLLLLLLLLLLLL", kwlist, &bitgen, &limit,
            &chunk, d, d + 1, d + 2, d + 3, d + 4, d + 5, v, v + 1, v + 2,
            v + 3, v + 4, v + 5, v + 6, v + 7, v + 8, v + 9, v + 10, v + 11,
            v + 12))
        return NULL;
    /* The draw loop divides by both. */
    if (v[11] < 1 || v[12] < 1) {
        PyErr_SetString(PyExc_ValueError, "n_streams and stride must be >= 1");
        return NULL;
    }
    if (limit < 0 || chunk < 1) {
        PyErr_SetString(PyExc_ValueError, "bad stream limit or chunk");
        return NULL;
    }
    if ((s = (Stream *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    s->limit = limit;
    s->chunk = chunk;
    s->gap_p = d[0];
    s->burst_start_p = d[1];
    s->burst_len_p = d[2];
    s->l2_frac = d[3];
    s->seq_frac = d[4];
    s->store_frac = d[5];
    s->base_addr = v[0];
    s->line_bytes = v[1];
    s->hot_base = v[2];
    s->hot_lines = v[3];
    s->l2_base = v[4];
    s->l2_lines = v[5];
    s->chase_base = v[6];
    s->chase_lines = v[7];
    s->stream_base = v[8];
    s->stream_regions = v[9];
    s->stream_run = v[10];
    s->stride = v[11];
    s->n_streams = v[12];
    s->bitgen = Py_NewRef(bitgen);
    if ((capsule = PyObject_GetAttrString(bitgen, "capsule")) == NULL)
        goto fail;
    /* The capsule is the bit generator's own, alive as long as it is. */
    s->bg = PyCapsule_GetPointer(capsule, "BitGenerator");
    Py_DECREF(capsule);
    if (s->bg == NULL
        || (s->lock = PyObject_GetAttrString(bitgen, "lock")) == NULL)
        goto fail;
    if ((s->streams = PyMem_New(int64_t, 2 * s->n_streams)) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < 3; i++)
        if ((s->col[i] = column_new(i < 2 ? 8 : 1, limit && limit < chunk
                                                       ? limit : chunk))
            == NULL)
            goto fail;
    if (stream_room(s, 0, 0) < 0 || bg_lock(s) < 0)
        goto fail;
    for (i = 0; i < s->n_streams; i++)
        reseat(s, s->streams + 2 * i);
    if (bg_unlock(s, 0) < 0)
        goto fail;
    return (PyObject *)s;
fail:
    Py_DECREF(s);
    return NULL;
}

/* columns(pos) */
static PyObject *stream_columns(Stream *s, PyObject *arg)
{
    int64_t pos;
    if (as_i64(arg, &pos) < 0 || stream_serve(s, pos) < 0)
        return NULL;
    if (pos >= s->feed.base && pos < s->feed.end)
        return stream_view(s);
    if (s->limit && pos >= s->limit)
        Py_RETURN_NONE;
    PyErr_Format(PyExc_ValueError,
                 "op %lld does not follow on from the stream's ops "
                 "[%lld, %lld)", (long long)pos, (long long)s->feed.base,
                 (long long)s->feed.end);
    return NULL;
}

/* skip(n) */
static PyObject *stream_skip(Stream *s, PyObject *arg)
{
    int64_t n;
    int rc = 0;
    if (as_i64(arg, &n) < 0)
        return NULL;
    if (s->limit || n < s->feed.end) {
        PyErr_SetString(PyExc_ValueError,
                        "only a window skips, and only forward");
        return NULL;
    }
    if (bg_lock(s) < 0)
        return NULL;
    while (rc == 0 && s->feed.end < n)
        rc = stream_fill(s, n - s->feed.end < s->chunk ? n - s->feed.end
                                                        : s->chunk);
    return done_or_null(bg_unlock(s, rc));
}

static PyMethodDef stream_methods[] = {
    {"columns", (PyCFunction)stream_columns, METH_O,
     "columns(pos): the held ops, drawn on until they hold op pos, as "
     "(gaps, addresses, store flags, base); None past a recording's limit"},
    {"skip", (PyCFunction)stream_skip, METH_O,
     "skip(n): draw a window on until op n is its next"},
    {NULL}
};

static PyTypeObject StreamType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._core.TraceStream",
    .tp_basicsize = sizeof(Stream),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One application's reference stream: its draw loop and the "
              "ops it holds.",
    .tp_new = stream_new,
    .tp_dealloc = (destructor)stream_dealloc,
    .tp_methods = stream_methods,
};

/* ======================================================================
 * CoreKernel
 * ====================================================================== */

struct Core {
    PyObject_HEAD
    /* identity, budget and geometry (read-only from Python) */
    long long core_id, target_insts, warmup_insts, lookahead;
    int64_t q, rob_size, l1_lat, l2_lat, line_mask;
    /* slot cursors and counts, and the index of the trace's next op
     * (Python members) */
    long long fetch_q, commit_q, fetched, committed, stall_q, trace_pos;
    /* crossing cycles, -1 until crossed */
    int64_t warmup_cycle, finish_cycle;
    /* the pending memory op: address, first instruction, store flag */
    int64_t cur_addr, cur_inst;
    char cur_write, trace_done, blocked, stopped, fetch_was_full;
    /* the reorder buffer's loads: a ring of (instruction, ready cycle)
     * pairs; head and tail count pushes and pops, a slot is (i & mask),
     * and a missing load's token is its slot */
    int64_t *rob_inst, *rob_ready;
    int64_t rob_head, rob_tail, rob_mask;
    /* Python-visible objects */
    PyObject *stats, *on_warmup, *on_finish, *replay_ops;
    SpanView spans;
    /* the shared memory path: the hierarchy, this core's side of it and
     * the L2, the CoreStats slots and this core's demand counter */
    PyObject *hierarchy, *py_core_id;
    CoreSide *side;
    Cache *l2;
    int64_t *ks, *demand;
    Pins pins;
    /* the trace's ops the core reads, [feed->base, feed->end): a kernel
     * stream's own feed (stream, from trace.stream(pos)), which the core
     * reads in place and draws on itself, or own, over the columns
     * trace.columns(pos) last served (replay_ops), whose buffer exports
     * (held) the core keeps until its next call */
    const Feed *feed;
    Feed own;
    Stream *stream;
    Py_buffer held[3];
    int nheld;
    /* calls out of the kernel */
    PyObject *after_l2_miss, *fill_l1, *schedule, *columns, *stream_fn;
    PyObject *wake_cb, *unblock_cb, *load_ready_cb, *store_cb;
};

static int core_closed(void)
{
    return closed("core");
}

static void rob_push(Core *c, int64_t inst, int64_t ready)
{
    int64_t i = c->rob_tail++ & c->rob_mask;
    c->rob_inst[i] = inst;
    c->rob_ready[i] = ready;
}

/* -- trace feed ---------------------------------------------------------- */

/* Op pos of the feed (base <= pos < end) becomes the pending op.  The
 * feed's addresses are read afresh: a recording's columns move when any
 * of its readers grows them. */
static void take_op(Core *c, int64_t pos, int64_t fetched)
{
    const Feed *f = c->feed;
    int64_t i = pos - f->base;
    c->cur_inst = fetched + f->gaps[i];
    c->cur_addr = f->addrs[i];
    c->cur_write = f->writes[i] != 0;
    c->trace_pos = pos + 1;
}

static void release_held(Core *c)
{
    while (c->nheld)
        PyBuffer_Release(&c->held[--c->nheld]);
    memset(&c->own, 0, sizeof c->own);
    c->feed = &c->own;
}

/* Hold r, what trace.columns() served, as the feed: a (gaps, addresses,
 * store flags, base) tuple whose buffers the core exports until its next
 * call (the columns cannot resize meanwhile).  Steals r. */
static int hold(Core *c, PyObject *r)
{
    Py_buffer v[3];
    Py_ssize_t i, n = PY_SSIZE_T_MAX;
    int64_t base;
    if (!PyTuple_Check(r) || PyTuple_GET_SIZE(r) != 4
        || as_i64(PyTuple_GET_ITEM(r, 3), &base) < 0) {
        Py_DECREF(r);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "columns() must return (gaps, addresses, "
                            "store flags, base) or None");
        return -1;
    }
    for (i = 0; i < 3; i++) {
        Py_ssize_t size = i < 2 ? 8 : 1;
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(r, i), &v[i], PyBUF_SIMPLE)
            < 0)
            break;
        if (v[i].itemsize != size) {
            PyBuffer_Release(&v[i]);
            PyErr_SetString(PyExc_TypeError,
                            "recording columns must be int64, int64 and "
                            "byte arrays");
            break;
        }
        if (v[i].len / size < n)
            n = v[i].len / size;
    }
    if (i < 3) {
        while (i)
            PyBuffer_Release(&v[--i]);
        Py_DECREF(r);
        return -1;
    }
    release_held(c);
    memcpy(c->held, v, sizeof v);
    c->nheld = 3;
    c->own.gaps = v[0].buf;
    c->own.addrs = v[1].buf;
    c->own.writes = v[2].buf;
    c->own.base = base;
    c->own.end = base + n;
    Py_XSETREF(c->replay_ops, r);
    return 0;
}

/* The feed ends before op pos: take the source that holds it from the
 * trace.  A trace with a stream() serves a kernel stream, which the core
 * then reads in place and draws on itself until it ends; any other trace
 * serves columns, and None from columns() ends the trace. */
static int next_source(Core *c, int64_t pos)
{
    PyObject *v, *r;
    if (c->columns == NULL)
        return core_closed();
    if ((v = PyLong_FromLongLong(pos)) == NULL)
        return -1;
    r = PyObject_CallOneArg(c->stream_fn != NULL ? c->stream_fn : c->columns,
                            v);
    Py_DECREF(v);
    if (r == NULL)
        return -1;
    if (c->stream_fn != NULL) {
        if (!PyObject_TypeCheck(r, &StreamType)) {
            Py_DECREF(r);
            PyErr_SetString(PyExc_TypeError,
                            "stream() must return a TraceStream");
            return -1;
        }
        release_held(c);
        Py_XSETREF(c->stream, (Stream *)r);
        c->feed = &c->stream->feed;
        if (stream_serve(c->stream, pos) < 0)
            return -1;
    } else if (r == Py_None) {
        Py_DECREF(r);
        c->trace_done = 1;
        return 0;
    } else if (hold(c, r) < 0) {
        return -1;
    }
    if (pos < c->feed->base || pos >= c->feed->end) {
        PyErr_Format(PyExc_RuntimeError,
                     "trace columns out of step: op %lld is not in "
                     "[%lld, %lld)", (long long)pos,
                     (long long)c->feed->base, (long long)c->feed->end);
        return -1;
    }
    return 0;
}

/* Make the trace's next op the pending one, `fetched` instructions into
 * the stream.  Past the end of the feed, a kernel stream draws on in
 * place, and where it cannot the trace serves the next source. */
static int pull_next_op(Core *c, int64_t fetched)
{
    int64_t pos = c->trace_pos;
    if (pos >= c->feed->end && c->feed != &c->own
        && stream_serve(c->stream, pos) < 0)
        return -1;
    if (pos >= c->feed->end) {
        if (next_source(c, pos) < 0)
            return -1;
        if (c->trace_done)
            return 0;
    }
    take_op(c, pos, fetched);
    return 0;
}

/* -- commit -------------------------------------------------------------- */

/* Cycle the threshold-th instruction committed (within the batch that just
 * completed): slot interpolation from commit_q. */
static int64_t crossing_cycle(Core *c, int64_t threshold)
{
    int64_t slot = c->commit_q - 1 - (c->committed - threshold);
    int64_t cycle = slot / c->q;
    if (slot % c->q < 0)
        cycle -= 1;  /* floor */
    return cycle + 1;
}

static int fire(Core *c, PyObject *hook)
{
    int rc;
    if (hook == NULL || hook == Py_None)
        return 0;
    Py_INCREF(hook);
    rc = call_drop(PyObject_CallOneArg(hook, (PyObject *)c));
    Py_DECREF(hook);
    return rc;
}

static int check_finish(Core *c)
{
    int64_t total = c->warmup_insts + c->target_insts;
    if (c->warmup_cycle < 0 && c->committed >= c->warmup_insts) {
        c->warmup_cycle = crossing_cycle(c, c->warmup_insts);
        if (fire(c, c->on_warmup) < 0)
            return -1;
    }
    if (c->finish_cycle < 0 && c->committed >= total) {
        c->finish_cycle = crossing_cycle(c, total);
        if (fire(c, c->on_finish) < 0)
            return -1;
    }
    return 0;
}

/* Retire instructions up to the first not-ready load (no time cap: commit
 * timing is deterministic once ready times are known).  The crossing
 * checks run only when a batch reaches the next threshold (warm-up, then
 * warm-up + budget), and not at all once the budget has committed. */
static int advance_commit(Core *c)
{
    const int64_t q = c->q, mask = c->rob_mask;
    const int64_t total = c->warmup_insts + c->target_insts;
    int64_t committed = c->committed, commit_q = c->commit_q;
    int64_t fetched = c->fetched, threshold = 0;
    int check = c->finish_cycle < 0;
    if (check)
        threshold = c->warmup_cycle < 0 ? c->warmup_insts : total;
    for (;;) {
        int have = c->rob_head != c->rob_tail;
        int64_t boundary = have ? c->rob_inst[c->rob_head & mask] : fetched;
        int64_t free = boundary - committed;
        if (free > 0) {
            /* Plain instructions retire at q per cycle. */
            committed += free;
            commit_q += free;
        } else {
            int64_t ready, min_q;
            if (!have || boundary >= fetched)
                break; /* nothing more fetched */
            ready = c->rob_ready[c->rob_head & mask];
            if (ready >= NEVER)
                break; /* head load still waiting on memory */
            /* The load itself retires, no earlier than its data-ready
             * cycle. */
            min_q = ready * q;
            if (commit_q < min_q) {
                c->stall_q += min_q - commit_q;
                commit_q = min_q;
            }
            commit_q += 1;
            committed += 1;
            c->rob_head += 1;
        }
        if (check && committed >= threshold) {
            c->committed = committed;
            c->commit_q = commit_q;
            if (check_finish(c) < 0)
                return -1;
            check = c->finish_cycle < 0;
            if (check)
                threshold = c->warmup_cycle < 0 ? c->warmup_insts : total;
            fetched = c->fetched;
        }
    }
    c->committed = committed;
    c->commit_q = commit_q;
    return 0;
}

/* -- fetch --------------------------------------------------------------- */

static PyObject *core_on_load_ready(Core *c, PyObject *const *args,
                                    Py_ssize_t nargs);
static PyObject *core_store_data(Core *c, PyObject *const *args,
                                 Py_ssize_t nargs);

static PyObject *load_pair(Core *c, int64_t token)
{
    PyObject *t = PyLong_FromLongLong(token), *pair;
    if (t == NULL)
        return NULL;
    pair = PyTuple_Pack(2, c->load_ready_cb, t);
    Py_DECREF(t);
    return pair;
}

/* A memory op that missed both caches continues in
 * CacheHierarchy._after_l2_miss with its data waiter: a load's is
 * core._on_load_ready with the ROB slot the load will occupy as its
 * token, a store's core._store_data_cb.  The hierarchy's own method runs
 * hier_miss directly, with this core's own callbacks as kernel waiters;
 * otherwise the method is called through Python, a load's waiter the
 * pair (core._on_load_ready, token).  Stores the hierarchy's result code
 * in *result; 0 or -1. */
static int l2_miss(Core *c, int64_t line, int64_t cycle, long *result)
{
    PyObject *args[5], *waiter = NULL, *r, *k;
    int64_t token = c->rob_tail & c->rob_mask;
    int rc;
    if (c->after_l2_miss == NULL || c->store_cb == NULL || c->load_ready_cb == NULL)
        return core_closed();
    if ((k = own(c->after_l2_miss, ENTRY(hier_after_l2_miss))) != NULL) {
        Waiter w = {NULL, token, W_LOAD};
        if (c->cur_write) {
            w.kind = W_STORE;
            if ((w.obj = own(c->store_cb, ENTRY(core_store_data))) == NULL) {
                w.obj = c->store_cb;
                w.kind = W_CALL;
            }
        } else if ((w.obj = own(c->load_ready_cb,
                                ENTRY(core_on_load_ready))) == NULL) {
            /* an overridden _on_load_ready: the Python pair */
            if ((w.obj = waiter = load_pair(c, token)) == NULL)
                return -1;
            w.kind = W_CALL;
        }
        Py_INCREF(k);
        rc = hier_miss((Hier *)k, c->core_id, line, c->cur_write, cycle, &w,
                       result);
        Py_DECREF(k);
        Py_XDECREF(waiter);
        return rc;
    }
    if (c->cur_write) {
        waiter = c->store_cb;
        Py_INCREF(waiter);
    } else if ((waiter = load_pair(c, token)) == NULL) {
        return -1;
    }
    args[0] = c->py_core_id;
    args[1] = PyLong_FromLongLong(line);
    args[2] = c->cur_write ? Py_True : Py_False;
    args[3] = PyLong_FromLongLong(cycle);
    args[4] = waiter;
    r = (args[1] && args[3])
        ? PyObject_Vectorcall(c->after_l2_miss, args, 5, NULL) : NULL;
    Py_XDECREF(args[1]);
    Py_XDECREF(args[3]);
    Py_DECREF(waiter);
    if (r == NULL)
        return -1;
    *result = PyLong_AsLong(r);
    Py_DECREF(r);
    return *result == -1 && PyErr_Occurred() ? -1 : 0;
}

/* hierarchy._fill_l1(core_id, line, is_write, cycle); the hierarchy's own
 * method runs l1_install directly. */
static int fill_l1(Core *c, int64_t line, int64_t cycle)
{
    PyObject *args[4], *k;
    CoreSide *side;
    int rc;
    if (c->fill_l1 == NULL)
        return core_closed();
    if ((k = own(c->fill_l1, ENTRY(hier_fill_l1))) != NULL) {
        Py_INCREF(k);
        rc = hier_core((Hier *)k, c->core_id, &side) < 0 ? -1
            : l1_install((Hier *)k, side, c->core_id, line, c->cur_write,
                         cycle);
        Py_DECREF(k);
        return rc;
    }
    args[0] = c->py_core_id;
    args[1] = PyLong_FromLongLong(line);
    args[2] = c->cur_write ? Py_True : Py_False;
    args[3] = PyLong_FromLongLong(cycle);
    rc = (args[1] && args[3])
        ? call_drop(PyObject_Vectorcall(c->fill_l1, args, 4, NULL)) : -1;
    Py_XDECREF(args[1]);
    Py_XDECREF(args[3]);
    return rc;
}

/* Register for the next structural-resource release. */
static int wait_unblock(Core *c)
{
    if (c->unblock_cb == NULL)
        return core_closed();
    return hier_wait_unblock((Hier *)c->hierarchy, c->unblock_cb);
}

/* Stamp a structural stall on the span collector's _stamps: keep the
 * first stall per (core, line), so the eventual request's span can
 * attribute the structural-stall wait (offer_read consumes the
 * stamp). */
static int note_blocked(Core *c, int64_t cycle, int64_t line)
{
    int64_t *stamp;
    if (c->core_id >= c->spans.ncores)
        return index_error("span collector stall stamp");
    stamp = c->spans.stamps + 2 * c->core_id;
    if (stamp[1] != line) {
        stamp[0] = cycle;
        stamp[1] = line;
    }
    return 0;
}

/* A miss that found its MSHR file, the L2 MSHRs or the controller buffer
 * full: count the stall, stamp it for spans and wait for a release. */
static int block(Core *c, int64_t cycle, int64_t line)
{
    c->ks[K_STALLS]++;
    if (c->spans.obj != NULL && note_blocked(c, cycle, line) < 0)
        return -1;
    c->blocked = 1;
    return wait_unblock(c);
}

/* Fetch up to limit_q; sets *progressed to whether any instruction
 * entered the window.
 *
 * One loop covers gap batches and memory ops.  The cursors live in
 * locals and return to the core at exit, and the hit and access counters
 * are batched and added once, at exit: nothing re-enters the core during
 * a fetch call (commit never runs inside fetch, the hierarchy reads no
 * core state, and data and unblock waiters fire later from engine
 * events).  The L1 and L2 probes are the caches' only demand hit paths:
 * they probe the blocks directly, charge demand_accesses and both
 * levels' hit/miss counters, and an L2 hit installs the line through
 * _fill_l1; an L2 miss continues in CacheHierarchy._after_l2_miss. */
static int advance_fetch(Core *c, int64_t limit_q, int *progressed)
{
    const int64_t q = c->q, rob_size = c->rob_size, committed = c->committed;
    const int64_t budget = c->warmup_insts + c->target_insts;
    const int l2_lat_is_l1 = c->l2_lat == c->l1_lat;
    Cache *l1 = &c->side->l1, *l2 = c->l2;
    int64_t fetched = c->fetched, fetch_q = c->fetch_q;
    int64_t n_l1_hits = 0, n_l1_miss = 0, n_demand = 0, n_loads = 0;
    int64_t n_stores = 0, n_s_l1_hits = 0, n_l2_hits = 0, n_l2_miss = 0;
    int64_t n_l2_load_hits = 0;

    *progressed = 0;
    while (fetch_q < limit_q) {
        int64_t space = rob_size - (fetched - committed), take, room, cycle;
        int64_t addr, line;
        int is_write;
        if (space <= 0) {
            c->fetch_was_full = 1;
            break; /* window full: wait for commit */
        }
        if (c->trace_done) {
            /* Tail: plain instructions so a finite trace can still reach
             * its budget; stop at the budget. */
            take = budget - fetched;
            if (take <= 0)
                break;
            if (space < take)
                take = space;
            if (limit_q - fetch_q < take)
                take = limit_q - fetch_q;
            if (take <= 0)
                break;
            fetched += take;
            fetch_q += take;
            *progressed = 1;
            continue;
        }
        take = c->cur_inst - fetched;
        if (take > 0) {
            if (space < take)
                take = space;
            room = limit_q - fetch_q;
            if (room < take)
                take = room;
            if (take <= 0)
                break;
            fetched += take;
            fetch_q += take;
            *progressed = 1;
            continue;
        }
        /* The memory instruction itself is due this slot. */
        cycle = fetch_q / q;
        addr = c->cur_addr;
        is_write = c->cur_write;
        n_demand += 1;
        /* L1 hit, the overwhelmingly common outcome: the line moves to
         * MRU, and a store dirties it. */
        if (cache_touch(l1, addr >> l1->off, is_write)) {
            n_l1_hits += 1;
            if (is_write) {
                n_stores += 1;
            } else {
                rob_push(c, fetched, cycle + c->l1_lat);
                n_s_l1_hits += 1;
                n_loads += 1;
            }
        } else {
            n_l1_miss += 1;
            line = addr & c->line_mask;
            /* L2 hit: refresh L2 recency, install into the L1 and retire
             * the reference here, with no waiter. */
            if (cache_touch(l2, line >> l2->off, 0)) {
                n_l2_hits += 1;
                if (fill_l1(c, line, cycle) < 0)
                    goto done;
                if (is_write) {
                    n_stores += 1;
                } else {
                    rob_push(c, fetched, cycle + c->l2_lat);
                    if (l2_lat_is_l1)
                        n_s_l1_hits += 1;
                    else
                        n_l2_load_hits += 1;
                    n_loads += 1;
                }
            } else {
                long result;
                n_l2_miss += 1;
                if (l2_miss(c, line, cycle, &result) < 0)
                    goto done;
                if (result == BLOCKED) {
                    if (block(c, cycle, line) < 0)
                        goto done;
                    break; /* op stays pending for the retry */
                }
                if (is_write) {
                    n_stores += 1;
                } else {
                    /* PENDING (new memory request) or MERGED (rides an
                     * in-flight line): either way the load waits. */
                    n_loads += 1;
                    if (result == PENDING)
                        c->ks[K_MEM_REQUESTS]++;
                    rob_push(c, fetched, NEVER);
                }
            }
        }
        fetched += 1;
        fetch_q += 1;
        if (c->trace_pos < c->feed->end)
            take_op(c, c->trace_pos, fetched);
        else if (pull_next_op(c, fetched) < 0)
            goto done;
        *progressed = 1;
    }
    c->fetched = fetched;
    c->fetch_q = fetch_q;
    *c->demand += n_demand;
    l1->stats[C_HITS] += n_l1_hits;
    l1->stats[C_MISSES] += n_l1_miss;
    l2->stats[C_HITS] += n_l2_hits;
    l2->stats[C_MISSES] += n_l2_miss;
    c->ks[K_LOADS] += n_loads;
    c->ks[K_STORES] += n_stores;
    c->ks[K_L1_HITS] += n_s_l1_hits;
    c->ks[K_L2_HITS] += n_l2_load_hits;
    return 0;
done:
    return -1;
}

/* -- the simulation loop ------------------------------------------------- */

/* engine.schedule(cycle, core._wake); the engine's own method queues the
 * event directly. */
static int schedule_wake(Core *c, int64_t cycle)
{
    PyObject *args[2], *e;
    int rc;
    if (c->schedule == NULL || c->wake_cb == NULL)
        return core_closed();
    if ((e = own(c->schedule, ENTRY(engine_schedule))) != NULL)
        return engine_add((Engine *)e, cycle, c->wake_cb, NULL);
    if ((args[0] = PyLong_FromLongLong(cycle)) == NULL)
        return -1;
    args[1] = c->wake_cb;
    rc = call_drop(PyObject_Vectorcall(c->schedule, args, 2, NULL));
    Py_DECREF(args[0]);
    return rc;
}

/* Schedule the next spontaneous activation, if one is needed.  Blocked
 * cores are woken by callbacks, cores stalled at the window head by their
 * load's data return; only a core that stopped purely because of the
 * lookahead bound, or behind a head load whose ready cycle is known,
 * needs a timer. */
static int arm_wake(Core *c, int64_t now, int64_t limit_q)
{
    int64_t space, ready = 0;
    int have = c->rob_head != c->rob_tail;
    if (c->stopped || c->blocked)
        return 0;
    if (c->trace_done && c->fetched >= c->warmup_insts + c->target_insts)
        return 0; /* drained */
    space = c->rob_size - (c->fetched - c->committed);
    if (have)
        ready = c->rob_ready[c->rob_head & c->rob_mask];
    if (space <= 0 && have && ready >= NEVER)
        return 0; /* the head load's response wakes the core */
    if (c->fetch_q >= limit_q)
        return schedule_wake(c, limit_q / c->q);
    if (space <= 0 && have)
        return schedule_wake(c, ready > now + 1 ? ready : now + 1);
    return 0; /* fetch stopped for a reason a callback resolves */
}

/* Advance fetch and commit as far as currently deterministic, bounded by
 * now + lookahead for fetch. */
static int run(Core *c, int64_t now)
{
    int64_t limit_q = (now + c->lookahead) * c->q;
    int progressed;
    if (c->side == NULL)
        return core_closed();
    for (;;) {
        if (advance_commit(c) < 0)
            return -1;
        if (c->blocked || c->stopped)
            return 0;
        /* If fetch had filled the window, it resumed only because commit
         * freed slots, so its clock cannot be behind commit's. */
        if (c->fetch_was_full && c->fetched - c->committed < c->rob_size) {
            c->fetch_was_full = 0;
            if (c->fetch_q < c->commit_q)
                c->fetch_q = c->commit_q;
        }
        if (advance_fetch(c, limit_q, &progressed) < 0)
            return -1;
        if (!progressed)
            break; /* a trailing commit pass would be a no-op */
    }
    return arm_wake(c, now, limit_q);
}

/* Whether the blocked op would block again right now: it misses both
 * caches and the hierarchy's structural-stall test holds.  Membership
 * tests only: a miss path mutates nothing.  1, 0 or -1. */
static int blocks_again(Core *c)
{
    int64_t addr = c->cur_addr, line = addr & c->line_mask, base;
    if (cache_way(&c->side->l1, addr >> c->side->l1.off, &base) >= 0
        || cache_way(c->l2, line >> c->l2->off, &base) >= 0)
        return 0;
    return hier_would_block((Hier *)c->hierarchy, c->side, line);
}

/* -- engine and hierarchy callbacks ---------------------------------------- */

static int parse_now(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want,
                     int64_t *now)
{
    if (nargs_are(nargs, want) < 0)
        return -1;
    return as_i64(args[want - 1], now);
}

/* A timer or the first activation. */
static int core_wake_at(Core *c, int64_t now)
{
    return c->stopped ? 0 : run(c, now);
}

/* _wake(now) */
static PyObject *core_wake(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t now;
    if (parse_now(args, nargs, 1, &now) < 0)
        return NULL;
    return done_or_null(core_wake_at(c, now));
}

/* A structural resource freed.  Resource-freed wakes fan out to every
 * blocked core, so most retries find the freed slot already taken.
 * Those charge what the failed attempt would have charged (demand
 * access, L1 and L2 miss, structural stall) and wait again, without the
 * run loop: commit is already maximal at every event boundary and
 * fetch_was_full is never set while blocked, so the skipped passes would
 * be no-ops.  A retry leaves the span collector alone: it keeps only the
 * first stall per (core, line), and only this core's next read request,
 * which a blocked core cannot issue, clears that stamp. */
static int core_unblock_at(Core *c, int64_t now)
{
    int again;
    if (c->stopped || !c->blocked)
        return 0; /* stale wake: another resource freed us already */
    if (c->side == NULL)
        return core_closed();
    /* The front end lost the stalled cycles; resume from the wake point. */
    if (c->fetch_q < now * c->q)
        c->fetch_q = now * c->q;
    if (!c->trace_done) {
        if ((again = blocks_again(c)) < 0)
            return -1;
        if (again) {
            *c->demand += 1;
            c->side->l1.stats[C_MISSES]++;
            c->l2->stats[C_MISSES]++;
            c->ks[K_STALLS]++;
            return wait_unblock(c); /* still blocked */
        }
    }
    c->blocked = 0;
    return run(c, now);
}

/* _on_unblock(now) */
static PyObject *core_on_unblock(Core *c, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int64_t now;
    if (parse_now(args, nargs, 1, &now) < 0)
        return NULL;
    return done_or_null(core_unblock_at(c, now));
}

/* A missing load's data arrived; token is its ROB slot. */
static int core_load_ready_at(Core *c, int64_t token, int64_t now)
{
    if (token < 0 || token > c->rob_mask || c->rob_ready == NULL) {
        PyErr_SetString(PyExc_ValueError, "not a ROB token of this core");
        return -1;
    }
    c->rob_ready[token] = now;
    return c->stopped ? 0 : run(c, now);
}

/* _on_load_ready(token, now) */
static PyObject *core_on_load_ready(Core *c, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    int64_t now, token;
    if (parse_now(args, nargs, 2, &now) < 0 || as_i64(args[0], &token) < 0)
        return NULL;
    return done_or_null(core_load_ready_at(c, token, now));
}

/* A store miss's data arrived.  Nothing waits on it, but the MSHR slot
 * it frees may unblock the front end. */
static int core_store_at(Core *c, int64_t now)
{
    return c->stopped || c->blocked ? 0 : run(c, now);
}

/* _store_data_cb(line, now) */
static PyObject *core_store_data(Core *c, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int64_t now;
    if (parse_now(args, nargs, 2, &now) < 0)
        return NULL;
    return done_or_null(core_store_at(c, now));
}

/* -- binding --------------------------------------------------------------- */

/* _bind(...): attach the core to its memory path, take the callables the
 * kernel calls out through (the trace's columns, and its stream or None,
 * among them), and pull the first op.  Called once, by
 * TraceCore.__init__, after it sets stats. */
static PyObject *core_bind(Core *c, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "core_id", "target_insts", "warmup_insts", "lookahead",
        "issue_width", "rob_size", "hierarchy", "columns", "stream",
        "after_l2_miss", "fill_l1", "schedule", "wake", "on_unblock",
        "on_load_ready", "store_data", NULL};
    long long core_id, target, warmup, lookahead, width, rob_size;
    PyObject *h, *columns, *stream, *after, *fill, *sched;
    PyObject *wake, *unblock, *ready, *store;
    int64_t n;
    Hier *hier;

    if (c->hierarchy != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the core is already bound");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$LLLLLLOOOOOOOOOO", kwlist, &core_id, &target,
            &warmup, &lookahead, &width, &rob_size, &h, &columns, &stream,
            &after, &fill, &sched, &wake, &unblock, &ready, &store))
        return NULL;
    if (core_id < 0 || target < 1 || warmup < 0 || lookahead < 1 || width < 1
        || rob_size < 1) {
        PyErr_SetString(PyExc_ValueError, "bad core geometry");
        return NULL;
    }
    if (!PyObject_TypeCheck(h, &HierType)) {
        PyErr_SetString(PyExc_TypeError, "hierarchy must be a CacheHierarchy");
        return NULL;
    }
    hier = (Hier *)h;
    if (hier_core(hier, core_id, &c->side) < 0)
        return NULL;
    c->core_id = core_id;
    c->target_insts = target;
    c->warmup_insts = warmup;
    c->lookahead = lookahead;
    c->q = width;
    c->rob_size = rob_size;
    c->warmup_cycle = warmup == 0 ? 0 : -1;
    c->finish_cycle = -1;
    /* A power of two above rob_size: the window never holds more loads
     * than rob_size, so a token's slot is not reused before its load
     * retires, and a load cannot retire before its data arrives. */
    for (n = 1; n <= rob_size; n <<= 1)
        ;
    c->rob_mask = n - 1;
    c->rob_inst = PyMem_New(int64_t, n);
    c->rob_ready = PyMem_New(int64_t, n);
    if (c->rob_inst == NULL || c->rob_ready == NULL) {
        PyErr_NoMemory();
        return NULL;
    }

    if ((c->py_core_id = PyLong_FromLongLong(core_id)) == NULL)
        return NULL;
    KEEP(c, hierarchy, h);
    c->l2 = &hier->l2;
    c->demand = hier->demand + core_id;
    if (c->stats == NULL) {
        PyErr_SetString(PyExc_TypeError, "bind the core's stats first");
        return NULL;
    }
    if ((c->ks = pin_counters(&c->pins, c->stats, K_NFIELDS)) == NULL
        || attr_i64(h, s_line_mask, &c->line_mask) < 0
        || attr_i64(h, s_l1_hit_latency, &c->l1_lat) < 0
        || attr_i64(h, s_l2_hit_latency, &c->l2_lat) < 0)
        return NULL;

    KEEP(c, columns, columns);
    if (stream != Py_None)
        KEEP(c, stream_fn, stream);
    c->feed = &c->own;
    KEEP(c, after_l2_miss, after);
    KEEP(c, fill_l1, fill);
    KEEP(c, schedule, sched);
    KEEP(c, wake_cb, wake);
    KEEP(c, unblock_cb, unblock);
    KEEP(c, load_ready_cb, ready);
    KEEP(c, store_cb, store);
    return done_or_null(pull_next_op(c, 0));
}

/* _unbind(): drop every callable the kernel calls out through; they tie
 * the core, its trace, engine and hierarchy into reference cycles.  The
 * held columns go too; the stream stays readable through _replay_ops. */
static PyObject *core_unbind(Core *c, PyObject *Py_UNUSED(ignored))
{
    release_held(c);
    Py_CLEAR(c->after_l2_miss);
    Py_CLEAR(c->fill_l1);
    Py_CLEAR(c->schedule);
    Py_CLEAR(c->columns);
    Py_CLEAR(c->stream_fn);
    Py_CLEAR(c->wake_cb);
    Py_CLEAR(c->unblock_cb);
    Py_CLEAR(c->load_ready_cb);
    Py_CLEAR(c->store_cb);
    Py_RETURN_NONE;
}

/* -- type ------------------------------------------------------------------ */

#define OBJECT_FIELDS(X) \
    X(stats) X(spans.obj) X(spans.inflight) X(on_warmup) X(on_finish) \
    X(replay_ops) X(stream) X(hierarchy) X(py_core_id) X(columns) X(stream_fn) \
    X(after_l2_miss) X(fill_l1) X(schedule) X(wake_cb) X(unblock_cb) \
    X(load_ready_cb) X(store_cb)

static int core_traverse(Core *c, visitproc visit, void *arg)
{
#define VISIT(f) Py_VISIT(c->f);
    OBJECT_FIELDS(VISIT)
#undef VISIT
    return 0;
}

/* The hierarchy goes, and with it the storage side and l2 point into. */
static int core_clear(Core *c)
{
    release_held(c);
#define CLEAR(f) Py_CLEAR(c->f);
    OBJECT_FIELDS(CLEAR)
#undef CLEAR
    c->side = NULL;
    c->l2 = NULL;
    return 0;
}

static void core_dealloc(Core *c)
{
    PyObject_GC_UnTrack(c);
    core_clear(c);
    unpin(&c->pins);
    unpin(&c->spans.pins);
    PyMem_Free(c->rob_inst);
    PyMem_Free(c->rob_ready);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyObject *get_cycle(int64_t v)
{
    if (v < 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(v);
}

static PyObject *get_warmup_cycle(Core *c, void *Py_UNUSED(closure))
{
    return get_cycle(c->warmup_cycle);
}

static PyObject *get_finish_cycle(Core *c, void *Py_UNUSED(closure))
{
    return get_cycle(c->finish_cycle);
}

static PyObject *core_get_replay_ops(Core *c, void *Py_UNUSED(closure))
{
    if (c->stream != NULL)
        return stream_view(c->stream);
    return Py_NewRef(c->replay_ops != NULL ? c->replay_ops : Py_None);
}

static PyObject *core_get_spans(Core *c, void *Py_UNUSED(closure))
{
    return spans_get(&c->spans);
}

static int core_set_spans(Core *c, PyObject *v, void *Py_UNUSED(closure))
{
    return spans_set(&c->spans, v);
}

static PyGetSetDef core_getset[] = {
    {"_replay_ops", (getter)core_get_replay_ops, NULL,
     "the ops the core last read: its stream's (gaps, addresses, store "
     "flags, base), or the columns trace.columns() last served; or None",
     NULL},
    {"spans", (getter)core_get_spans, (setter)core_set_spans,
     "span collector for structural-stall stamps, or None", NULL},
    {"warmup_cycle", (getter)get_warmup_cycle, NULL,
     "cycle the warm-up budget committed (0 without warm-up), or None", NULL},
    {"finish_cycle", (getter)get_finish_cycle, NULL,
     "cycle the measurement budget committed, or None", NULL},
    {NULL}
};

#define MEMBER(name, type, field, flags, doc) \
    {name, type, offsetof(Core, field), flags, doc}

static PyMemberDef core_members[] = {
    MEMBER("core_id", T_LONGLONG, core_id, READONLY, NULL),
    MEMBER("target_insts", T_LONGLONG, target_insts, READONLY,
           "instructions measured after the warm-up"),
    MEMBER("warmup_insts", T_LONGLONG, warmup_insts, READONLY,
           "instructions committed before measurement starts"),
    MEMBER("lookahead", T_LONGLONG, lookahead, READONLY,
           "cycles the core may run past the simulation time"),
    MEMBER("fetch_q", T_LONGLONG, fetch_q, 0, "next free fetch slot"),
    MEMBER("commit_q", T_LONGLONG, commit_q, 0, "next free commit slot"),
    MEMBER("fetched", T_LONGLONG, fetched, 0, NULL),
    MEMBER("committed", T_LONGLONG, committed, 0, NULL),
    MEMBER("stall_q", T_LONGLONG, stall_q, 0,
           "cumulative commit slots lost waiting on head loads"),
    MEMBER("_trace_pos", T_LONGLONG, trace_pos, READONLY,
           "the index of the trace's next op (ops taken so far)"),
    MEMBER("_stopped", T_BOOL, stopped, 0, NULL),
    MEMBER("stats", T_OBJECT, stats, 0,
           "the core's CoreStats (the kernel binds its slots at _bind)"),
    MEMBER("on_warmup", T_OBJECT, on_warmup, 0,
           "hook fired once at the warm-up crossing: fn(core)"),
    MEMBER("on_finish", T_OBJECT, on_finish, 0,
           "hook fired once at the budget crossing: fn(core)"),
    {NULL}
};

static PyMethodDef core_methods[] = {
    {"_wake", (PyCFunction)(void (*)(void))core_wake, METH_FASTCALL,
     "_wake(now): a timer or the first activation"},
    {"_on_unblock", (PyCFunction)(void (*)(void))core_on_unblock,
     METH_FASTCALL, "_on_unblock(now): a structural resource freed"},
    {"_on_load_ready", (PyCFunction)(void (*)(void))core_on_load_ready,
     METH_FASTCALL, "_on_load_ready(token, now): a missing load's data arrived"},
    {"_store_data_cb", (PyCFunction)(void (*)(void))core_store_data,
     METH_FASTCALL, "_store_data_cb(line, now): a store miss's data arrived"},
    {"_bind", (PyCFunction)(void (*)(void))core_bind,
     METH_VARARGS | METH_KEYWORDS, NULL},
    {"_unbind", (PyCFunction)core_unbind, METH_NOARGS, NULL},
    {NULL}
};

static PyTypeObject CoreKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._core.CoreKernel",
    .tp_basicsize = sizeof(Core),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The core model's state and hot paths; TraceCore's base.",
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor)core_dealloc,
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear,
    .tp_methods = core_methods,
    .tp_members = core_members,
    .tp_getset = core_getset,
};

/* ======================================================================
 * Telemetry epochs
 * ====================================================================== */

/* type(*v), the n values new references (stolen) */
static PyObject *record(PyObject *type, PyObject **v, int n)
{
    PyObject *r = NULL;
    int i;
    for (i = 0; i < n && v[i] != NULL; i++)
        ;
    if (i == n)
        r = PyObject_Vectorcall(type, v, n, NULL);
    for (i = 0; i < n; i++)
        Py_XDECREF(v[i]);
    return r;
}

/* epoch(controller, cores, engine, prev, now, span, secs, sample_type,
 * channel_type, core_type) -> Sample: one telemetry epoch of span cycles
 * (secs seconds) ending at now, of the controller's channels and queues,
 * the cores and the engine (repro.telemetry.sampler.Sampler).  Its
 * records hold the deltas of the cumulative counters against prev, an
 * int64 array the call updates: per channel its transactions, row hits,
 * data cycles and writes, per core its committed instructions and stall
 * slots, then the engine's events and clamped events. */
static PyObject *mod_epoch(PyObject *Py_UNUSED(m), PyObject *const *args,
                           Py_ssize_t nargs)
{
    Ctrl *c;
    Engine *e;
    PyObject *cores, *out[2] = {NULL, NULL}, *v[9];
    Py_buffer pv;
    int64_t now, span, *prev;
    double secs;
    Py_ssize_t i, nb, n;
    if (nargs_are(nargs, 10) < 0)
        return NULL;
    cores = args[1];
    if (!PyObject_TypeCheck(args[0], &CtrlType) || !PyList_CheckExact(cores)
        || !PyObject_TypeCheck(args[2], &EngineType)) {
        PyErr_SetString(PyExc_TypeError, "epoch() takes a controller, a list "
                        "of cores and an engine");
        return NULL;
    }
    c = (Ctrl *)args[0];
    e = (Engine *)args[2];
    if (ctrl_bound(c) < 0 || as_i64(args[4], &now) < 0
        || as_i64(args[5], &span) < 0
        || ((secs = PyFloat_AsDouble(args[6])) == -1.0 && PyErr_Occurred()))
        return NULL;
    n = PyList_GET_SIZE(cores);
    if (span <= 0 || n > c->ncores) {
        PyErr_SetString(PyExc_ValueError, "bad epoch");
        return NULL;
    }
    if (PyObject_GetBuffer(args[3], &pv, PyBUF_WRITABLE) < 0)
        return NULL;
    if (pv.itemsize != 8 || pv.len < (4 * c->nch + 2 * n + 2) * 8) {
        PyErr_SetString(PyExc_TypeError, "prev must be an int64 array of "
                        "4 per channel, 2 per core and 2");
        goto done;
    }
    prev = pv.buf;
    if ((out[0] = PyTuple_New(c->nch)) == NULL
        || (out[1] = PyTuple_New(n)) == NULL)
        goto done;
    for (i = 0; i < c->nch; i++, prev += 4) {
        ChanView *cv = &c->chans[i];
        int64_t tx = cv->c[CH_TRANSACTIONS], wr = cv->c[CH_WRITES];
        int64_t data = cv->c[CH_DATA_CYCLES], hits = 0, d_tx, d_wr, bytes;
        double util;
        for (nb = 0; nb < cv->nbanks; nb++)
            hits += cv->hits[nb];
        d_tx = tx - prev[0];
        d_wr = wr - prev[3];
        util = (double)(data - prev[2]) / (double)span;
        bytes = d_tx * c->line_bytes;
        v[0] = PyLong_FromSsize_t(i);
        v[1] = PyLong_FromLongLong(bytes);
        v[2] = PyFloat_FromDouble((double)bytes / secs / 1e9);
        v[3] = PyFloat_FromDouble(util < 1.0 ? util : 1.0);
        v[4] = PyFloat_FromDouble(
            d_tx ? (double)(hits - prev[1]) / (double)d_tx : 0.0);
        v[5] = PyLong_FromLongLong(d_tx - d_wr);
        v[6] = PyLong_FromLongLong(d_wr);
        prev[0] = tx;
        prev[1] = hits;
        prev[2] = data;
        prev[3] = wr;
        if ((v[0] = record(args[8], v, 7)) == NULL)
            goto done;
        PyTuple_SET_ITEM(out[0], i, v[0]);
    }
    for (i = 0; i < n; i++, prev += 2) {
        Core *k = (Core *)PyList_GET_ITEM(cores, i);
        int64_t d_committed;
        double stall;
        if (!PyObject_TypeCheck((PyObject *)k, &CoreKernelType)
            || k->side == NULL) {
            PyErr_SetString(PyExc_TypeError, "a core is a bound TraceCore");
            goto done;
        }
        d_committed = k->committed - prev[0];
        stall = (double)(k->stall_q - prev[1]) / (double)(k->q * span);
        prev[0] = k->committed;
        prev[1] = k->stall_q;
        v[0] = PyLong_FromSsize_t(i);
        v[1] = PyLong_FromLongLong(d_committed);
        v[2] = PyFloat_FromDouble((double)d_committed / (double)span);
        v[3] = PyLong_FromLongLong(c->pending_reads[i]);
        v[4] = PyLong_FromLongLong(k->side->mshr.ctr[M_OCCUPANCY]);
        v[5] = PyLong_FromLongLong(k->fetched - k->committed);
        v[6] = PyFloat_FromDouble(stall < 1.0 ? stall : 1.0);
        if ((v[0] = record(args[9], v, 7)) == NULL)
            goto done;
        PyTuple_SET_ITEM(out[1], i, v[0]);
    }
    /* Sample(cycle, span, channels, cores, read_queue, write_queue,
     * drain_mode, events, clamped_events) */
    v[0] = PyLong_FromLongLong(now);
    v[1] = PyLong_FromLongLong(span);
    v[2] = out[0];
    v[3] = out[1];
    out[0] = out[1] = NULL;
    v[4] = PyLong_FromSsize_t(PyList_GET_SIZE(c->reads));
    v[5] = PyLong_FromSsize_t(PyList_GET_SIZE(c->writes));
    v[6] = PyBool_FromLong(c->drain_mode);
    v[7] = PyLong_FromLongLong(e->events_processed - prev[0]);
    v[8] = PyLong_FromLongLong(e->clamped_events - prev[1]);
    prev[0] = e->events_processed;
    prev[1] = e->clamped_events;
    PyBuffer_Release(&pv);
    return record(args[7], v, 9);
done:
    PyBuffer_Release(&pv);
    Py_XDECREF(out[0]);
    Py_XDECREF(out[1]);
    return NULL;
}

/* ======================================================================
 * module
 * ====================================================================== */

static struct PyModuleDef core_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "The simulator's model kernel: core, memory side and event loop.",
    .m_size = -1,
    .m_methods = core_functions,
};

static int add_type(PyObject *m, const char *name, PyTypeObject *type)
{
    if (PyType_Ready(type) < 0)
        return -1;
    Py_INCREF(type);
    if (PyModule_AddObject(m, name, (PyObject *)type) < 0) {
        Py_DECREF(type);
        return -1;
    }
    return 0;
}

PyMODINIT_FUNC PyInit__core(void)
{
    PyObject *m;
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL;
    INTERN(s_stats, "stats") INTERN(s_c, "_c")
    INTERN(s_tags, "_tags") INTERN(s_dirty, "_dirty") INTERN(s_count, "_count")
    INTERN(s_off_bits, "_off_bits") INTERN(s_set_mask, "_set_mask")
    INTERN(s_assoc, "_assoc") INTERN(s_lines, "_lines")
    INTERN(s_stores, "_stores")
    INTERN(s_capacity, "capacity")
    INTERN(s_line_mask, "_line_mask")
    INTERN(s_l1_hit_latency, "_l1_hit_latency")
    INTERN(s_l2_hit_latency, "_l2_hit_latency")
    INTERN(s_on_merge, "on_merge")
    INTERN(s_inflight, "_inflight") INTERN(s_completed, "completed")
    INTERN(s_max_spans, "max_spans") INTERN(s_dropped, "dropped")
    INTERN(s_first_attempt, "first_attempt")
    INTERN(s_sample_every, "sample_every") INTERN(s_read, "read")
    INTERN(s_channel, "channel") INTERN(s_bank, "bank") INTERN(s_row, "row")
    INTERN(s_observers, "observers") INTERN(s_now, "now")
    INTERN(s_hits_prefiltered, "hits_prefiltered")
    INTERN(s_select_read, "select_read") INTERN(s_select_write, "select_write")
    INTERN(s_update_drain_mode, "_update_drain_mode")
    INTERN(s_arrival, "arrival")
    INTERN(s_pick, "pick") INTERN(s_track, "track")
    INTERN(s_controller_track, "controller")
    INTERN(s_bank_start, "bank_start") INTERN(s_cas, "cas")
    INTERN(s_data_start, "data_start") INTERN(s_data_end, "data_end")
    INTERN(s_done, "done") INTERN(s_row_hit, "row_hit")
    INTERN(s_conflict, "conflict")
    INTERN(s_channels, "channels") INTERN(s_mapper, "mapper")
    INTERN(s_ch_bits, "_ch_bits") INTERN(s_bank_bits, "_bank_bits")
    INTERN(s_col_bits, "_col_bits") INTERN(s_timing, "timing")
    INTERN(s_t_rp, "t_rp") INTERN(s_t_rcd, "t_rcd") INTERN(s_t_cl, "t_cl")
    INTERN(s_t_burst, "t_burst") INTERN(s_t_wr, "t_wr")
    INTERN(s_t_rrd, "t_rrd") INTERN(s_t_faw, "t_faw")
    INTERN(s_reads, "reads") INTERN(s_writes, "writes")
    INTERN(s_reads_by_ch, "reads_by_ch") INTERN(s_writes_by_ch, "writes_by_ch")
    INTERN(s_pending_reads, "pending_reads")
    INTERN(s_pending_writes, "pending_writes")
    INTERN(s_read_count, "read_count")
    INTERN(s_read_latency_sum, "read_latency_sum")
    INTERN(s_read_latency_max, "read_latency_max")
    INTERN(s_bytes_read, "bytes_read") INTERN(s_bytes_written, "bytes_written")
    INTERN(s_write_count, "write_count") INTERN(s_ready, "ready")
    INTERN(s_open_row, "open_row") INTERN(s_hits, "hits")
    INTERN(s_acts, "acts") INTERN(s_confs, "confs")
    INTERN(s_act_cycles, "_act_cycles") INTERN(s_num_banks, "num_banks")
    INTERN(s_stamps, "_stamps")
    INTERN(s_read_rule, "read_rule") INTERN(s_write_rule, "write_rule")
    INTERN(s_rank_kind, "rank_kind") INTERN(s_rank_depth, "_rank_depth")
    INTERN(s_rank, "_rank") INTERN(s_rotor, "_rotor")
    INTERN(s_num_cores, "num_cores") INTERN(s_rng, "rng")
    INTERN(s_queues, "queues") INTERN(s_is_row_hit, "is_row_hit")
    INTERN(s_acquire, "acquire") INTERN(s_release, "release")
#undef INTERN
    if ((kw_timing = Py_BuildValue("(ssssss)", "cas_cycle", "data_start",
                                   "data_end", "row_hit", "start_cycle",
                                   "conflict")) == NULL)
        return NULL;
    if ((m = PyModule_Create(&core_module)) == NULL)
        return NULL;
    PastEventError = PyErr_NewExceptionWithDoc(
        "repro.sim.engine.PastEventError",
        "A strict-mode engine was asked to schedule before now.",
        PyExc_RuntimeError, NULL);
    if (PastEventError == NULL
        || PyModule_AddObjectRef(m, "PastEventError", PastEventError) < 0
        || add_type(m, "MemoryRequest", &RequestType) < 0
        || add_type(m, "EngineKernel", &EngineType) < 0
        || add_type(m, "ControllerKernel", &CtrlType) < 0
        || add_type(m, "HierarchyKernel", &HierType) < 0
        || add_type(m, "CoreKernel", &CoreKernelType) < 0
        || PyType_Ready(&ColumnType) < 0
        || add_type(m, "TraceStream", &StreamType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

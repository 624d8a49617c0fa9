/* Hot paths of the trace-driven core model (repro.cpu.core_model).
 *
 * CoreKernel is the base type of TraceCore.  It holds the core's cursors,
 * its reorder buffer and its pending memory op in C, and runs the four
 * engine and hierarchy callbacks (_wake, _on_unblock, _on_load_ready,
 * _store_data_cb) with everything they reach: commit, fetch with its
 * inlined L1 and L2 hit paths, the blocked-retry probe, wake arming, the
 * trace feed and the warm-up and finish crossings.  core_model.py's
 * module docstring describes the model itself.
 *
 * The kernel walks the Python objects the rest of the simulator shares,
 * in the order the model always walked them: the caches' set dicts
 * (tag -> dirty flag, insertion order = LRU order), the MSHR entry dict,
 * the hierarchy's waiter list and flags, the controller buffer's
 * occupancy, the stats objects and hierarchy.demand_accesses.  Counters
 * reach those objects at fixed points: a fetch call batches its counts and
 * adds them when it returns; a failed retry charges its own at once.
 * Calls out of the kernel go through the bound callables TraceCore hands
 * to _bind(), so instrumentation that wraps a method by name before a
 * machine is built sees every call.
 *
 * Time is counted in slots: issue_width slots per cycle (see
 * core_model.py).  All ints are int64; an address or cycle beyond that
 * raises OverflowError on the way in. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>

/* ready cycle of a load still waiting on memory */
#define NOT_READY ((int64_t)1 << 62)
/* CacheHierarchy._after_l2_miss results (hierarchy.py) */
#define PENDING (-1)
#define BLOCKED (-2)

typedef struct {
    PyObject_HEAD
    /* identity, budget and geometry (read-only from Python) */
    long long core_id, target_insts, warmup_insts, lookahead;
    int64_t q, rob_size, l1_lat, l2_lat;
    int64_t l1_off, l1_mask, l2_off, l2_mask, line_mask;
    int64_t mshr_cap, l2_mshr_cap, cq_cap;
    /* slot cursors and counts (Python members) */
    long long fetch_q, commit_q, fetched, committed, stall_q, trace_pos;
    /* crossing cycles, -1 until crossed */
    int64_t warmup_cycle, finish_cycle;
    /* the pending memory op: address, first instruction, store flag (the
     * trace's own object, stored as is into the L1 on a write hit) */
    int64_t cur_addr, cur_inst;
    PyObject *cur_write;
    char trace_done, blocked, stopped, fetch_was_full;
    /* the reorder buffer's loads: a ring of (instruction, ready cycle)
     * pairs; head and tail count pushes and pops, a slot is (i & mask),
     * and a missing load's token is its slot */
    int64_t *rob_inst, *rob_ready;
    int64_t rob_head, rob_tail, rob_mask;
    /* Python-visible objects */
    PyObject *stats, *spans, *on_warmup, *on_finish, *replay_ops;
    /* the shared memory path */
    PyObject *hierarchy, *l1, *l2, *l1_sets, *l2_sets, *mshr_entries;
    PyObject *queues, *demand, *py_core_id;
    /* a recording's columns (NULL for other trace sources) */
    PyObject *r_gaps, *r_addrs, *r_writes;
    /* calls out of the kernel */
    PyObject *after_l2_miss, *fill_l1, *schedule, *grow, *next_op;
    PyObject *wake_cb, *unblock_cb, *load_ready_cb, *store_cb;
} Core;

static PyObject *s_stats, *s_hits, *s_misses, *s_loads, *s_stores,
    *s_l1_hits, *s_l2_hits, *s_mem_requests, *s_structural_stalls,
    *s_unblock_waiters, *s_space_watch_armed, *s_l2_outstanding,
    *s_occupancy, *s_controller, *s_wait_for_space, *s_on_space_freed,
    *s_gap, *s_addr, *s_is_write, *s_sets, *s_off_bits,
    *s_set_mask, *s_entries, *s_capacity, *s_l2, *s_line_mask,
    *s_l1_hit_latency, *s_l2_hit_latency, *s_l2_mshr_cap, *s_queues,
    *s_demand_accesses, *kw_fill;

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

/* obj.name += n */
static int add_attr(PyObject *obj, PyObject *name, int64_t n)
{
    PyObject *v, *d, *r;
    int rc;
    if (obj == NULL) {
        PyErr_SetString(PyExc_AttributeError, "the core's stats were deleted");
        return -1;
    }
    if ((v = PyObject_GetAttr(obj, name)) == NULL)
        return -1;
    if ((d = PyLong_FromLongLong(n)) == NULL) {
        Py_DECREF(v);
        return -1;
    }
    r = PyNumber_InPlaceAdd(v, d);
    Py_DECREF(v);
    Py_DECREF(d);
    if (r == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, r);
    Py_DECREF(r);
    return rc;
}

/* self.demand[core_id] += n */
static int add_demand(Core *c, int64_t n)
{
    PyObject *v, *d, *r;
    int rc;
    if ((v = PySequence_GetItem(c->demand, (Py_ssize_t)c->core_id)) == NULL)
        return -1;
    if ((d = PyLong_FromLongLong(n)) == NULL) {
        Py_DECREF(v);
        return -1;
    }
    r = PyNumber_InPlaceAdd(v, d);
    Py_DECREF(v);
    Py_DECREF(d);
    if (r == NULL)
        return -1;
    rc = PySequence_SetItem(c->demand, (Py_ssize_t)c->core_id, r);
    Py_DECREF(r);
    return rc;
}

/* The set dict of a cache's set list (a list of dicts). */
static PyObject *set_at(PyObject *sets, int64_t index)
{
    PyObject *s;
    if (index < 0 || index >= PyList_GET_SIZE(sets)) {
        PyErr_SetString(PyExc_IndexError, "cache set index out of range");
        return NULL;
    }
    s = PyList_GET_ITEM(sets, index);
    if (!PyDict_Check(s)) {
        PyErr_SetString(PyExc_TypeError, "a cache set must be a dict");
        return NULL;
    }
    return s;
}

/* Whether int key k is in dict d: 1, 0 or -1. */
static int dict_has(PyObject *d, int64_t k)
{
    PyObject *key = PyLong_FromLongLong(k);
    int rc;
    if (key == NULL)
        return -1;
    rc = PyDict_Contains(d, key);
    Py_DECREF(key);
    return rc;
}

/* A cache hit's recency refresh: s[key] = s.pop(key), or with or_value,
 * s[key] = s.pop(key) or or_value.  Returns 1 on a hit, 0 on a miss (s
 * unchanged) and -1 on error. */
static int touch(PyObject *s, int64_t k, PyObject *or_value)
{
    PyObject *key = PyLong_FromLongLong(k), *old;
    int rc = -1, truth;
    if (key == NULL)
        return -1;
    old = PyDict_GetItemWithError(s, key);
    if (old == NULL) {
        rc = PyErr_Occurred() ? -1 : 0;
        goto done;
    }
    Py_INCREF(old);
    if (PyDict_DelItem(s, key) < 0)
        goto drop;
    if (or_value != NULL) {
        if ((truth = PyObject_IsTrue(old)) < 0)
            goto drop;
        if (!truth) {
            Py_INCREF(or_value);
            Py_SETREF(old, or_value);
        }
    }
    rc = PyDict_SetItem(s, key, old) < 0 ? -1 : 1;
drop:
    Py_DECREF(old);
done:
    Py_DECREF(key);
    return rc;
}

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

static int closed(void)
{
    PyErr_SetString(PyExc_RuntimeError, "the core is closed");
    return -1;
}

static void rob_push(Core *c, int64_t inst, int64_t ready)
{
    int64_t i = c->rob_tail++ & c->rob_mask;
    c->rob_inst[i] = inst;
    c->rob_ready[i] = ready;
}

/* -- trace feed ---------------------------------------------------------- */

/* Op pos of the recording becomes the pending op. */
static int take_recorded(Core *c, int64_t pos, int64_t fetched)
{
    PyObject *w;
    int64_t gap, addr;
    if (pos >= PyList_GET_SIZE(c->r_gaps) || pos >= PyList_GET_SIZE(c->r_addrs)
        || pos >= PyList_GET_SIZE(c->r_writes)) {
        PyErr_SetString(PyExc_RuntimeError, "recording columns out of step");
        return -1;
    }
    if (as_i64(PyList_GET_ITEM(c->r_gaps, pos), &gap) < 0
        || as_i64(PyList_GET_ITEM(c->r_addrs, pos), &addr) < 0)
        return -1;
    w = PyList_GET_ITEM(c->r_writes, pos);
    c->cur_inst = fetched + gap;
    c->cur_addr = addr;
    Py_INCREF(w);
    Py_SETREF(c->cur_write, w);
    c->trace_pos = pos + 1;
    return 0;
}

/* Make the trace's next op the pending one, `fetched` instructions into
 * the stream.  A recording serves it from its columns, grown at their end
 * (trace.grow); other sources, and a recording's live tail past its cap,
 * serve it through trace.next_op(). */
static int pull_next_op(Core *c, int64_t fetched)
{
    PyObject *op, *v;
    int64_t gap, addr;
    if (c->r_gaps != NULL) {
        int64_t pos = c->trace_pos;
        int have = pos < PyList_GET_SIZE(c->r_gaps);
        if (!have) {
            PyObject *r;
            if (c->grow == NULL)
                return closed();
            if ((v = PyLong_FromLongLong(pos)) == NULL)
                return -1;
            r = PyObject_CallOneArg(c->grow, v);
            Py_DECREF(v);
            if (r == NULL)
                return -1;
            have = PyObject_IsTrue(r);
            Py_DECREF(r);
            if (have < 0)
                return -1;
        }
        if (have)
            return take_recorded(c, pos, fetched);
    }
    if (c->next_op == NULL)
        return closed();
    if ((op = PyObject_CallNoArgs(c->next_op)) == NULL)
        return -1;
    if (op == Py_None) {
        Py_DECREF(op);
        c->trace_done = 1;
        return 0;
    }
    if (attr_i64(op, s_gap, &gap) < 0 || attr_i64(op, s_addr, &addr) < 0
        || (v = PyObject_GetAttr(op, s_is_write)) == NULL) {
        Py_DECREF(op);
        return -1;
    }
    Py_DECREF(op);
    c->cur_inst = fetched + gap;
    c->cur_addr = addr;
    Py_SETREF(c->cur_write, v);
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
            if (ready >= NOT_READY)
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

/* Register for the next structural-resource release: join the
 * hierarchy's _unblock_waiters and, unless it is armed already, arm its
 * one controller-space watch (_on_space_freed). */
static int wait_unblock(Core *c)
{
    PyObject *h = c->hierarchy, *waiters, *armed, *ctrl, *freed;
    int rc, is_armed;
    if (c->unblock_cb == NULL)
        return closed();
    if ((waiters = PyObject_GetAttr(h, s_unblock_waiters)) == NULL)
        return -1;
    rc = PyList_Append(waiters, c->unblock_cb);
    Py_DECREF(waiters);
    if (rc < 0 || (armed = PyObject_GetAttr(h, s_space_watch_armed)) == NULL)
        return -1;
    is_armed = PyObject_IsTrue(armed);
    Py_DECREF(armed);
    if (is_armed != 0)
        return is_armed < 0 ? -1 : 0;
    if (PyObject_SetAttr(h, s_space_watch_armed, Py_True) < 0)
        return -1;
    if ((ctrl = PyObject_GetAttr(h, s_controller)) == NULL)
        return -1;
    if ((freed = PyObject_GetAttr(h, s_on_space_freed)) == NULL) {
        Py_DECREF(ctrl);
        return -1;
    }
    rc = call_drop(PyObject_CallMethodOneArg(ctrl, s_wait_for_space, freed));
    Py_DECREF(ctrl);
    Py_DECREF(freed);
    return rc;
}

/* A memory op that missed both caches continues in
 * CacheHierarchy._after_l2_miss; a load hands it (core._on_load_ready,
 * token) as its data waiter, where the token is the ROB slot the load
 * will occupy, a store core._store_data_cb.  Stores the hierarchy's
 * result code in *result; 0 or -1. */
static int l2_miss(Core *c, int64_t line, int64_t cycle, int is_write,
                   long *result)
{
    PyObject *args[5], *waiter, *r;
    if (c->after_l2_miss == NULL || c->store_cb == NULL || c->load_ready_cb == NULL)
        return closed();
    if (is_write) {
        waiter = c->store_cb;
        Py_INCREF(waiter);
    } else {
        PyObject *token = PyLong_FromLongLong(c->rob_tail & c->rob_mask);
        if (token == NULL)
            return -1;
        waiter = PyTuple_Pack(2, c->load_ready_cb, token);
        Py_DECREF(token);
        if (waiter == NULL)
            return -1;
    }
    args[0] = c->py_core_id;
    args[1] = PyLong_FromLongLong(line);
    args[2] = c->cur_write;
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

/* hierarchy._fill_l1(core_id, line, dirty=is_write, now=cycle) */
static int fill_l1(Core *c, int64_t line, int64_t cycle)
{
    PyObject *args[4];
    int rc;
    if (c->fill_l1 == NULL)
        return closed();
    args[0] = c->py_core_id;
    args[1] = PyLong_FromLongLong(line);
    args[2] = c->cur_write;
    args[3] = PyLong_FromLongLong(cycle);
    rc = (args[1] && args[3])
        ? call_drop(PyObject_Vectorcall(c->fill_l1, args, 2, kw_fill)) : -1;
    Py_XDECREF(args[1]);
    Py_XDECREF(args[3]);
    return rc;
}

/* A miss that found its MSHR file, the L2 MSHRs or the controller buffer
 * full: count the stall, stamp it for spans and wait for a release. */
static int block(Core *c, int64_t cycle, int64_t line)
{
    if (add_attr(c->stats, s_structural_stalls, 1) < 0)
        return -1;
    if (c->spans != NULL && c->spans != Py_None) {
        /* Stamp the first attempt so the eventual request's span can
         * attribute the structural-stall wait. */
        PyObject *r = PyObject_CallMethod(c->spans, "note_blocked", "LLL",
                                          c->core_id, (long long)cycle,
                                          (long long)line);
        if (call_drop(r) < 0)
            return -1;
    }
    c->blocked = 1;
    return wait_unblock(c);
}

/* Fetch up to limit_q; sets *progressed to whether any instruction
 * entered the window.
 *
 * One loop covers gap batches and memory ops.  The cursors live in
 * locals and return to the core at exit, and the counters are batched
 * and added to their Python objects once, at exit: nothing re-enters the
 * core during a fetch call (commit never runs inside fetch, the hierarchy
 * reads no core state, and data and unblock waiters fire later from
 * engine events).  The L1 and L2 probes are the caches' only demand hit
 * paths: they read the SetAssocCache sets directly, charge
 * demand_accesses and both levels' hit/miss counters, and an L2 hit
 * installs the line through _fill_l1; an L2 miss continues in
 * CacheHierarchy._after_l2_miss. */
static int advance_fetch(Core *c, int64_t limit_q, int *progressed)
{
    const int64_t q = c->q, rob_size = c->rob_size, committed = c->committed;
    const int64_t budget = c->warmup_insts + c->target_insts;
    const int l2_lat_is_l1 = c->l2_lat == c->l1_lat;
    int64_t fetched = c->fetched, fetch_q = c->fetch_q;
    int64_t n_ops = c->r_gaps != NULL ? PyList_GET_SIZE(c->r_gaps) : 0;
    int64_t n_l1_hits = 0, n_l1_miss = 0, n_demand = 0, n_loads = 0;
    int64_t n_stores = 0, n_s_l1_hits = 0, n_l2_hits = 0, n_l2_miss = 0;
    int64_t n_l2_load_hits = 0;
    PyObject *l1_stats = NULL, *l2_stats = NULL;
    int rc = -1;

    *progressed = 0;
    /* Read per call: the kernel keeps no reference to a stats object. */
    if ((l1_stats = PyObject_GetAttr(c->l1, s_stats)) == NULL
        || (l2_stats = PyObject_GetAttr(c->l2, s_stats)) == NULL)
        goto done;
    while (fetch_q < limit_q) {
        int64_t space = rob_size - (fetched - committed), take, room, cycle;
        int64_t addr, tag, line;
        PyObject *s;
        int hit, is_write;
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
        if ((is_write = truthy(c->cur_write)) < 0)
            goto done;
        n_demand += 1;
        tag = addr >> c->l1_off;
        /* L1 hit, the overwhelmingly common outcome: move-to-back
         * refreshes recency, and a store dirties the line. */
        if ((s = set_at(c->l1_sets, tag & c->l1_mask)) == NULL
            || (hit = touch(s, tag, c->cur_write)) < 0)
            goto done;
        if (hit) {
            n_l1_hits += 1;
            if (is_write) {
                n_stores += 1;
            } else {
                rob_push(c, fetched, cycle + c->l1_lat);
                n_s_l1_hits += 1;
                n_loads += 1;
            }
        } else {
            int64_t t2;
            n_l1_miss += 1;
            line = addr & c->line_mask;
            t2 = line >> c->l2_off;
            /* L2 hit: refresh L2 recency, install into the L1 and retire
             * the reference here, with no waiter. */
            if ((s = set_at(c->l2_sets, t2 & c->l2_mask)) == NULL
                || (hit = touch(s, t2, NULL)) < 0)
                goto done;
            if (hit) {
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
                if (l2_miss(c, line, cycle, is_write, &result) < 0)
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
                    if (result == PENDING
                        && add_attr(c->stats, s_mem_requests, 1) < 0)
                        goto done;
                    rob_push(c, fetched, NOT_READY);
                }
            }
        }
        fetched += 1;
        fetch_q += 1;
        if (c->trace_pos < n_ops) {
            if (take_recorded(c, c->trace_pos, fetched) < 0)
                goto done;
        } else {
            if (pull_next_op(c, fetched) < 0)
                goto done;
            if (c->r_gaps != NULL)
                n_ops = PyList_GET_SIZE(c->r_gaps);
        }
        *progressed = 1;
    }
    c->fetched = fetched;
    c->fetch_q = fetch_q;
    rc = 0;
    if (n_demand) {
        if (add_demand(c, n_demand) < 0
            || (n_l1_hits && add_attr(l1_stats, s_hits, n_l1_hits) < 0)
            || (n_l1_miss && add_attr(l1_stats, s_misses, n_l1_miss) < 0)
            || (n_loads && add_attr(c->stats, s_loads, n_loads) < 0)
            || (n_stores && add_attr(c->stats, s_stores, n_stores) < 0)
            || (n_s_l1_hits && add_attr(c->stats, s_l1_hits, n_s_l1_hits) < 0)
            || (n_l2_hits && add_attr(l2_stats, s_hits, n_l2_hits) < 0)
            || (n_l2_miss && add_attr(l2_stats, s_misses, n_l2_miss) < 0)
            || (n_l2_load_hits
                && add_attr(c->stats, s_l2_hits, n_l2_load_hits) < 0))
            rc = -1;
    }
done:
    Py_XDECREF(l1_stats);
    Py_XDECREF(l2_stats);
    return rc;
}

/* -- the simulation loop ------------------------------------------------- */

static int schedule_wake(Core *c, int64_t cycle)
{
    PyObject *args[2];
    int rc;
    if (c->schedule == NULL || c->wake_cb == NULL)
        return closed();
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
    if (space <= 0 && have && ready >= NOT_READY)
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

/* Whether the blocked op would block again right now: the BLOCKED test of
 * CacheHierarchy._after_l2_miss (keep in sync with hierarchy.py), reached
 * only when the op misses both caches.  Membership tests only: a miss
 * path mutates nothing.  1, 0 or -1. */
static int blocks_again(Core *c)
{
    int64_t addr = c->cur_addr, tag = addr >> c->l1_off, line, t2, n;
    PyObject *s;
    int rc;
    if ((s = set_at(c->l1_sets, tag & c->l1_mask)) == NULL)
        return -1;
    if ((rc = dict_has(s, tag)) != 0)
        return rc < 0 ? -1 : 0;
    line = addr & c->line_mask;
    t2 = line >> c->l2_off;
    if ((s = set_at(c->l2_sets, t2 & c->l2_mask)) == NULL)
        return -1;
    if ((rc = dict_has(s, t2)) != 0)
        return rc < 0 ? -1 : 0;
    if ((rc = dict_has(c->mshr_entries, line)) != 0)
        return rc < 0 ? -1 : 0; /* merges */
    if (PyDict_GET_SIZE(c->mshr_entries) >= c->mshr_cap)
        return 1;
    if (attr_i64(c->hierarchy, s_l2_outstanding, &n) < 0)
        return -1;
    if (n >= c->l2_mshr_cap)
        return 1;
    if (attr_i64(c->queues, s_occupancy, &n) < 0)
        return -1;
    return n >= c->cq_cap;
}

/* -- engine and hierarchy callbacks ---------------------------------------- */

static int parse_now(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want,
                     int64_t *now)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "expected %zd arguments, got %zd",
                     want, nargs);
        return -1;
    }
    return as_i64(args[want - 1], now);
}

static PyObject *done_or_null(int rc)
{
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _wake(now): a timer or the first activation. */
static PyObject *core_wake(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t now;
    if (parse_now(args, nargs, 1, &now) < 0)
        return NULL;
    return done_or_null(c->stopped ? 0 : run(c, now));
}

/* _on_unblock(now): a structural resource freed.  Resource-freed wakes fan
 * out to every blocked core, so most retries find the freed slot already
 * taken.  Those charge what the failed attempt would have charged (demand
 * access, L1 and L2 miss, structural stall) and wait again, without the
 * run loop: commit is already maximal at every event boundary and
 * fetch_was_full is never set while blocked, so the skipped passes would
 * be no-ops.  A retry leaves the span collector alone: it keeps only the
 * first stall per (core, line), and only this core's next read request,
 * which a blocked core cannot issue, clears that stamp. */
static PyObject *core_on_unblock(Core *c, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int64_t now;
    int again;
    if (parse_now(args, nargs, 1, &now) < 0)
        return NULL;
    if (c->stopped || !c->blocked)
        Py_RETURN_NONE; /* stale wake: another resource freed us already */
    /* The front end lost the stalled cycles; resume from the wake point. */
    if (c->fetch_q < now * c->q)
        c->fetch_q = now * c->q;
    if (!c->trace_done) {
        PyObject *l1_stats, *l2_stats;
        int rc;
        if ((again = blocks_again(c)) < 0)
            return NULL;
        if (again) {
            if ((l1_stats = PyObject_GetAttr(c->l1, s_stats)) == NULL)
                return NULL;
            if ((l2_stats = PyObject_GetAttr(c->l2, s_stats)) == NULL) {
                Py_DECREF(l1_stats);
                return NULL;
            }
            rc = (add_demand(c, 1) < 0
                  || add_attr(l1_stats, s_misses, 1) < 0
                  || add_attr(l2_stats, s_misses, 1) < 0
                  || add_attr(c->stats, s_structural_stalls, 1) < 0
                  || wait_unblock(c) < 0) ? -1 : 0;
            Py_DECREF(l1_stats);
            Py_DECREF(l2_stats);
            return done_or_null(rc); /* still blocked */
        }
    }
    c->blocked = 0;
    return done_or_null(run(c, now));
}

/* _on_load_ready(token, now): a missing load's data arrived. */
static PyObject *core_on_load_ready(Core *c, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    int64_t now, token;
    if (parse_now(args, nargs, 2, &now) < 0 || as_i64(args[0], &token) < 0)
        return NULL;
    if (token < 0 || token > c->rob_mask || c->rob_ready == NULL) {
        PyErr_SetString(PyExc_ValueError, "not a ROB token of this core");
        return NULL;
    }
    c->rob_ready[token] = now;
    return done_or_null(c->stopped ? 0 : run(c, now));
}

/* _store_data_cb(line, now): a store miss's data arrived.  Nothing waits
 * on it, but the MSHR slot it frees may unblock the front end. */
static PyObject *core_store_data(Core *c, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int64_t now;
    if (parse_now(args, nargs, 2, &now) < 0)
        return NULL;
    return done_or_null(c->stopped || c->blocked ? 0 : run(c, now));
}

/* -- binding --------------------------------------------------------------- */

static int cache_geometry(PyObject *cache, PyObject **sets, int64_t *off,
                          int64_t *mask)
{
    if (attr_i64(cache, s_off_bits, off) < 0
        || attr_i64(cache, s_set_mask, mask) < 0
        || (*sets = PyObject_GetAttr(cache, s_sets)) == NULL)
        return -1;
    if (!PyList_CheckExact(*sets) || PyList_GET_SIZE(*sets) != *mask + 1) {
        PyErr_SetString(PyExc_TypeError,
                        "a cache's _sets must be a list of _set_mask + 1 sets");
        return -1;
    }
    return 0;
}

static int column(PyObject *cols, Py_ssize_t i, PyObject **out)
{
    PyObject *v = PyTuple_GET_ITEM(cols, i);
    if (!PyList_CheckExact(v)) {
        PyErr_SetString(PyExc_TypeError, "recording columns must be lists");
        return -1;
    }
    Py_INCREF(v);
    *out = v;
    return 0;
}

#define KEEP(field, value) do { Py_INCREF(value); Py_XSETREF(c->field, value); } while (0)

/* _bind(...): attach the core to its memory path and trace, take the
 * callables the kernel calls out through, and pull the first op.  Called
 * once, by TraceCore.__init__. */
static PyObject *core_bind(Core *c, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "core_id", "target_insts", "warmup_insts", "lookahead",
        "issue_width", "rob_size", "hierarchy", "l1", "mshr", "replay",
        "trace_pos", "after_l2_miss", "fill_l1", "schedule", "grow",
        "next_op", "wake", "on_unblock", "on_load_ready", "store_data", NULL};
    long long core_id, target, warmup, lookahead, width, rob_size, pos;
    PyObject *h, *l1, *mshr, *replay, *after, *fill, *sched, *grow, *next;
    PyObject *wake, *unblock, *ready, *store, *l2 = NULL, *ctrl = NULL;
    PyObject *v;
    int64_t n;

    if (c->hierarchy != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the core is already bound");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$LLLLLLOOOOLOOOOOOOOO", kwlist, &core_id, &target,
            &warmup, &lookahead, &width, &rob_size, &h, &l1, &mshr, &replay,
            &pos, &after, &fill, &sched, &grow, &next, &wake, &unblock,
            &ready, &store))
        return NULL;
    if (core_id < 0 || target < 1 || warmup < 0 || lookahead < 1 || width < 1
        || rob_size < 1 || pos < 0) {
        PyErr_SetString(PyExc_ValueError, "bad core geometry");
        return NULL;
    }
    c->core_id = core_id;
    c->target_insts = target;
    c->warmup_insts = warmup;
    c->lookahead = lookahead;
    c->q = width;
    c->rob_size = rob_size;
    c->trace_pos = pos;
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
    KEEP(hierarchy, h);
    KEEP(l1, l1);
    if ((l2 = PyObject_GetAttr(h, s_l2)) == NULL)
        return NULL;
    c->l2 = l2;
    if (cache_geometry(l1, &c->l1_sets, &c->l1_off, &c->l1_mask) < 0
        || cache_geometry(l2, &c->l2_sets, &c->l2_off, &c->l2_mask) < 0
        || attr_i64(h, s_line_mask, &c->line_mask) < 0
        || attr_i64(h, s_l1_hit_latency, &c->l1_lat) < 0
        || attr_i64(h, s_l2_hit_latency, &c->l2_lat) < 0
        || attr_i64(h, s_l2_mshr_cap, &c->l2_mshr_cap) < 0
        || attr_i64(mshr, s_capacity, &c->mshr_cap) < 0)
        return NULL;
    if ((c->mshr_entries = PyObject_GetAttr(mshr, s_entries)) == NULL)
        return NULL;
    if (!PyDict_Check(c->mshr_entries)) {
        PyErr_SetString(PyExc_TypeError, "MSHR entries must be a dict");
        return NULL;
    }
    if ((ctrl = PyObject_GetAttr(h, s_controller)) == NULL)
        return NULL;
    c->queues = PyObject_GetAttr(ctrl, s_queues);
    Py_DECREF(ctrl);
    if (c->queues == NULL || attr_i64(c->queues, s_capacity, &c->cq_cap) < 0)
        return NULL;
    if ((c->demand = PyObject_GetAttr(h, s_demand_accesses)) == NULL)
        return NULL;

    if (replay != Py_None) {
        if (!PyTuple_CheckExact(replay) || PyTuple_GET_SIZE(replay) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "replay must be (gaps, addresses, store flags)");
            return NULL;
        }
        if (column(replay, 0, &c->r_gaps) < 0
            || column(replay, 1, &c->r_addrs) < 0
            || column(replay, 2, &c->r_writes) < 0)
            return NULL;
    }
    KEEP(replay_ops, replay);
    KEEP(after_l2_miss, after);
    KEEP(fill_l1, fill);
    KEEP(schedule, sched);
    KEEP(grow, grow);
    KEEP(next_op, next);
    KEEP(wake_cb, wake);
    KEEP(unblock_cb, unblock);
    KEEP(load_ready_cb, ready);
    KEEP(store_cb, store);
    v = Py_False;
    KEEP(cur_write, v);
    return done_or_null(pull_next_op(c, 0));
}

/* _unbind(): drop every callable the kernel calls out through; they tie
 * the core, its trace, engine and hierarchy into reference cycles. */
static PyObject *core_unbind(Core *c, PyObject *Py_UNUSED(ignored))
{
    Py_CLEAR(c->after_l2_miss);
    Py_CLEAR(c->fill_l1);
    Py_CLEAR(c->schedule);
    Py_CLEAR(c->grow);
    Py_CLEAR(c->next_op);
    Py_CLEAR(c->wake_cb);
    Py_CLEAR(c->unblock_cb);
    Py_CLEAR(c->load_ready_cb);
    Py_CLEAR(c->store_cb);
    Py_RETURN_NONE;
}

/* -- type ------------------------------------------------------------------ */

#define OBJECT_FIELDS(X) \
    X(cur_write) X(stats) X(spans) X(on_warmup) X(on_finish) X(replay_ops) \
    X(hierarchy) X(l1) X(l2) X(l1_sets) X(l2_sets) X(mshr_entries) \
    X(queues) X(demand) X(py_core_id) X(r_gaps) X(r_addrs) X(r_writes) \
    X(after_l2_miss) X(fill_l1) X(schedule) X(grow) X(next_op) X(wake_cb) \
    X(unblock_cb) X(load_ready_cb) X(store_cb)

static int core_traverse(Core *c, visitproc visit, void *arg)
{
#define VISIT(f) Py_VISIT(c->f);
    OBJECT_FIELDS(VISIT)
#undef VISIT
    return 0;
}

static int core_clear(Core *c)
{
#define CLEAR(f) Py_CLEAR(c->f);
    OBJECT_FIELDS(CLEAR)
#undef CLEAR
    return 0;
}

static void core_dealloc(Core *c)
{
    PyObject_GC_UnTrack(c);
    core_clear(c);
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

static PyGetSetDef core_getset[] = {
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
    MEMBER("_trace_pos", T_LONGLONG, trace_pos, 0,
           "the recording cursor (ops taken from the columns)"),
    MEMBER("_replay_ops", T_OBJECT, replay_ops, READONLY,
           "the recording's columns (gaps, addresses, store flags), or None"),
    MEMBER("_stopped", T_BOOL, stopped, 0, NULL),
    MEMBER("stats", T_OBJECT, stats, 0, "the core's CoreStats"),
    MEMBER("spans", T_OBJECT, spans, 0,
           "span collector for structural-stall stamps, or None"),
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

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core",
    "Hot paths of repro.cpu.core_model.TraceCore.", -1, NULL
};

PyMODINIT_FUNC PyInit__core(void)
{
    PyObject *m;
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL;
    INTERN(s_stats, "stats") INTERN(s_hits, "hits") INTERN(s_misses, "misses")
    INTERN(s_loads, "loads") INTERN(s_stores, "stores")
    INTERN(s_l1_hits, "l1_hits") INTERN(s_l2_hits, "l2_hits")
    INTERN(s_mem_requests, "mem_requests")
    INTERN(s_structural_stalls, "structural_stalls")
    INTERN(s_unblock_waiters, "_unblock_waiters")
    INTERN(s_space_watch_armed, "_space_watch_armed")
    INTERN(s_l2_outstanding, "_l2_outstanding")
    INTERN(s_occupancy, "occupancy") INTERN(s_controller, "controller")
    INTERN(s_wait_for_space, "wait_for_space")
    INTERN(s_on_space_freed, "_on_space_freed")
    INTERN(s_gap, "gap")
    INTERN(s_addr, "addr") INTERN(s_is_write, "is_write")
    INTERN(s_sets, "_sets") INTERN(s_off_bits, "_off_bits")
    INTERN(s_set_mask, "_set_mask") INTERN(s_entries, "_entries")
    INTERN(s_capacity, "capacity") INTERN(s_l2, "l2")
    INTERN(s_line_mask, "_line_mask")
    INTERN(s_l1_hit_latency, "_l1_hit_latency")
    INTERN(s_l2_hit_latency, "_l2_hit_latency")
    INTERN(s_l2_mshr_cap, "l2_mshr_cap") INTERN(s_queues, "queues")
    INTERN(s_demand_accesses, "demand_accesses")
#undef INTERN
    if ((kw_fill = Py_BuildValue("(ss)", "dirty", "now")) == NULL)
        return NULL;
    if (PyType_Ready(&CoreKernelType) < 0)
        return NULL;
    if ((m = PyModule_Create(&core_module)) == NULL)
        return NULL;
    Py_INCREF(&CoreKernelType);
    if (PyModule_AddObject(m, "CoreKernel", (PyObject *)&CoreKernelType) < 0) {
        Py_DECREF(&CoreKernelType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

/* The simulator's model kernel: the core model, the memory side and the
 * event loop.
 *
 * Five types, each the base of (or, for MemoryRequest, the whole of) a
 * Python class that validates and binds:
 *
 *   MemoryRequest     one line read or write between the L2 and DRAM
 *                     (repro.controller.request)
 *   EngineKernel      EventEngine's heap, per-channel decision slots and
 *                     completion lanes, and its run loop (repro.sim.engine)
 *   ControllerKernel  FastMemoryController's enqueue, scheduling point with
 *                     its DDR2 timing, and delivery (repro.controller)
 *   HierarchyKernel   CacheHierarchy's miss path past the L2, fill path and
 *                     structural-stall wake-ups (repro.cache.hierarchy)
 *   CoreKernel        TraceCore's fetch with the L1/L2 hit paths, commit
 *                     and callbacks (repro.cpu.core_model)
 *
 * The kernel walks the Python objects the rest of the simulator shares, in
 * the order the model always walked them: the caches' set dicts (tag ->
 * dirty flag, insertion order = LRU order), the MSHR entry dicts, the
 * controller's RequestQueues lists and counters, the channels' bank lists
 * and counters, and the stats objects, so every counter lands on the same
 * Python object at the same point.  What stays Python is reached through
 * calls: the scheduling policy (select_read or select_write, looked up on
 * the policy at every decision), the write-drain transition, the writeback
 * path, dram.observer and the span collector.  Calls between components go
 * through the bound callables each Python class hands to its _bind(), so
 * instrumentation that wraps a method by name before a machine is built
 * sees every call.
 *
 * Time is counted in slots in the core: issue_width slots per cycle (see
 * core_model.py).  All ints are int64; an address or cycle beyond that
 * raises OverflowError on the way in. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdio.h>

/* ready cycle of a load still waiting on memory; an empty decision slot */
#define NEVER ((int64_t)1 << 62)
/* CacheHierarchy._after_l2_miss results (hierarchy.py) */
#define PENDING (-1)
#define BLOCKED (-2)
#define MERGED (-3)

static PyObject *s_stats, *s_hits, *s_misses, *s_loads, *s_stores,
    *s_l1_hits, *s_l2_hits, *s_mem_requests, *s_structural_stalls,
    *s_gap, *s_addr, *s_is_write, *s_sets, *s_off_bits, *s_set_mask,
    *s_assoc, *s_entries, *s_capacity, *s_l2, *s_line_mask,
    *s_l1_hit_latency, *s_l2_hit_latency, *s_demand_accesses,
    *s_evictions, *s_dirty_evictions, *s_fills, *s_merges, *s_on_merge,
    *s_allocations, *s_peak_occupancy, *s_start_request, *s_end_inflight,
    *s_count, *s_sample_every, *s_blocked, *s_offered, *s_read,
    *s_occupancy, *s_next_seq, *s_channel, *s_bank, *s_row,
    *s_busy_until, *s_bus_free_cycle, *s_transactions, *s_writes,
    *s_data_cycles, *s_act_times, *s_append, *s_observer, *s_now,
    *s_hits_prefiltered, *s_select_read, *s_select_write, *s_read_row_hits,
    *s_update_drain_mode, *s_index, *s_arrival, *s_pick, *s_track,
    *s_controller_track, *s_bank_start, *s_cas, *s_data_start,
    *s_data_end, *s_done, *s_row_hit, *s_conflict, *s_finish,
    *s_channels, *s_mapper, *s_decode_cache, *s_timing, *s_t_rp,
    *s_t_rcd, *s_t_cl, *s_t_burst, *s_t_wr, *s_t_rrd, *s_t_faw,
    *s_reads, *s_reads_by_ch, *s_writes_by_ch, *s_pending_reads,
    *s_pending_writes, *s_read_count, *s_read_latency_sum,
    *s_read_latency_max, *s_bytes_read, *s_bytes_written, *s_write_count,
    *s_ready, *s_open_row, *s_acts, *s_confs, *s_l1d, *kw_timing;
static PyObject *PastEventError;

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

/* obj.name += n */
static int add_attr(PyObject *obj, PyObject *name, int64_t n)
{
    PyObject *v, *d, *r;
    int rc;
    if (obj == NULL) {
        PyErr_SetString(PyExc_AttributeError, "the stats object was deleted");
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

/* list[i] as an int64 (bounds-checked) */
static int item_i64(PyObject *list, int64_t i, int64_t *out)
{
    if (i < 0 || i >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    return as_i64(PyList_GET_ITEM(list, i), out);
}

static int set_item_i64(PyObject *list, int64_t i, int64_t value)
{
    PyObject *v;
    if (i < 0 || i >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list assignment index out of range");
        return -1;
    }
    if ((v = PyLong_FromLongLong(value)) == NULL)
        return -1;
    return PyList_SetItem(list, i, v);
}

/* list[i] += n */
static int add_item(PyObject *list, int64_t i, int64_t n)
{
    int64_t v;
    if (item_i64(list, i, &v) < 0)
        return -1;
    return set_item_i64(list, i, v + n);
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

/* SetAssocCache.fill on set dict s: a resident tag is refreshed (its value
 * becomes `old or value` with or_value, else stays); an absent one evicts
 * the LRU line of a full set and goes in with value.  Returns 1 with the
 * victim's tag in *vtag and its dirty flag (a new reference) in *vdirty, 0
 * without a victim, -1 on error. */
static int install(PyObject *s, int64_t tag, PyObject *value, int or_value,
                   int64_t assoc, PyObject *stats, int64_t *vtag,
                   PyObject **vdirty)
{
    PyObject *key, *k, *v, *victim = NULL;
    Py_ssize_t pos = 0;
    int rc;
    if (s == NULL)
        return -1;
    if ((rc = touch(s, tag, or_value ? value : NULL)) != 0)
        return rc < 0 ? -1 : 0;
    if (PyDict_GET_SIZE(s) >= assoc && PyDict_Next(s, &pos, &k, &v)) {
        if (as_i64(k, vtag) < 0)
            return -1;
        victim = v;
        Py_INCREF(victim);
        Py_INCREF(k);
        rc = PyDict_DelItem(s, k);
        Py_DECREF(k);
        if (rc < 0 || add_attr(stats, s_evictions, 1) < 0
            || (rc = PyObject_IsTrue(victim)) < 0
            || (rc && add_attr(stats, s_dirty_evictions, 1) < 0))
            goto fail;
    }
    if ((key = PyLong_FromLongLong(tag)) == NULL)
        goto fail;
    rc = PyDict_SetItem(s, key, value);
    Py_DECREF(key);
    if (rc < 0 || add_attr(stats, s_fills, 1) < 0)
        goto fail;
    if (victim == NULL)
        return 0;
    *vdirty = victim;
    return 1;
fail:
    Py_XDECREF(victim);
    return -1;
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

static int closed(const char *what)
{
    PyErr_Format(PyExc_RuntimeError, "the %s is closed", what);
    return -1;
}

/* fn(now) */
static int call_now(PyObject *fn, PyObject *now)
{
    PyObject *r;
    Py_INCREF(fn);
    r = PyObject_CallOneArg(fn, now);
    Py_DECREF(fn);
    return call_drop(r);
}

/* Call every callback of a one-shot waiter list with now.  The list is
 * swapped for an empty one first, so callbacks that re-register land in
 * the new list. */
static int fan_out(PyObject **slot, int64_t now)
{
    PyObject *old = *slot, *fresh, *t;
    Py_ssize_t i;
    int rc = 0;
    if (old == NULL)
        return 0;
    if (!PyList_CheckExact(old)) {
        PyErr_SetString(PyExc_TypeError, "a waiter list must be a list");
        return -1;
    }
    if (PyList_GET_SIZE(old) == 0)
        return 0;
    if ((fresh = PyList_New(0)) == NULL)
        return -1;
    *slot = fresh;
    if ((t = PyLong_FromLongLong(now)) == NULL) {
        Py_DECREF(old);
        return -1;
    }
    for (i = 0; i < PyList_GET_SIZE(old) && rc == 0; i++)
        rc = call_now(PyList_GET_ITEM(old, i), t);
    Py_DECREF(t);
    Py_DECREF(old);
    return rc;
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

typedef struct {
    PyObject_HEAD
    long long addr, core_id, arrival_cycle, seq, issue_cycle, done_cycle;
    long long bank, row;
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
    r->seq = r->issue_cycle = r->done_cycle = r->bank = r->row = -1;
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
    r->seq = r->issue_cycle = r->done_cycle = r->bank = r->row = -1;
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

static PyObject *request_get_coord(Request *r, void *Py_UNUSED(closure))
{
    PyObject *v = r->coord != NULL ? r->coord : Py_None;
    Py_INCREF(v);
    return v;
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
     "decoded DRAM coordinate, filled by the controller at enqueue "
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
 * EngineKernel
 * ====================================================================== */

typedef struct {
    int64_t cycle, seq;
    PyObject *fn, *args; /* args: a tuple, or NULL for fn(now) */
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

typedef struct {
    PyObject_HEAD
    long long now, seq, events_processed, clamped_events;
    char strict, stop_requested;
    Event *heap;
    Py_ssize_t heap_len, heap_cap, nch;
    int64_t *dec_cycle, *dec_seq;
    Lane *lanes;
    PyObject *point_fn, *deliver_fn;
} Engine;

static PyTypeObject EngineType;

static int ev_less(const Event *a, const Event *b)
{
    return a->cycle < b->cycle || (a->cycle == b->cycle && a->seq < b->seq);
}

static int heap_push(Engine *e, int64_t cycle, PyObject *fn, PyObject *args)
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

/* schedule(cycle, fn, *args): run fn(now, *args) at cycle (clamped to the
 * present, counted in clamped_events; strict mode raises instead). */
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
                return NULL;
            }
        }
        cycle = e->now;
    }
    if (nargs > 2) {
        if ((rest = PyTuple_New(nargs - 2)) == NULL)
            return NULL;
        for (i = 2; i < nargs; i++) {
            Py_INCREF(args[i]);
            PyTuple_SET_ITEM(rest, i - 2, args[i]);
        }
    }
    rc = heap_push(e, cycle, args[1], rest);
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

/* The merged pop: the global (cycle, seq) minimum across the heap, the
 * decision slots and the completion lanes, dispatched until every source
 * is empty or stop_requested is set. */
static int engine_loop(Engine *e, int bounded, long long max_events)
{
    const long long start = e->events_processed;
    unsigned long tick = 0;
    for (;;) {
        int64_t bc = NEVER, bs = NEVER;
        int src = -1;
        Py_ssize_t ch = 0, i;
        PyObject *now, *r, *args[2];
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
        if ((now = PyLong_FromLongLong(bc)) == NULL)
            return -1;
        args[0] = now;
        if (src == 2) {
            PyObject *fn = e->deliver_fn;
            args[1] = lane_pop(&e->lanes[ch]);
            if (fn == NULL) {
                r = NULL;
                closed("engine");
            } else {
                Py_INCREF(fn);
                r = PyObject_Vectorcall(fn, args, 2, NULL);
                Py_DECREF(fn);
            }
            Py_DECREF(args[1]);
        } else if (src == 1) {
            PyObject *fn = e->point_fn;
            e->dec_cycle[ch] = NEVER;
            e->dec_seq[ch] = NEVER;
            if (fn == NULL) {
                r = NULL;
                closed("engine");
            } else if ((args[1] = PyLong_FromSsize_t(ch)) == NULL) {
                r = NULL;
            } else {
                Py_INCREF(fn);
                r = PyObject_Vectorcall(fn, args, 2, NULL);
                Py_DECREF(fn);
                Py_DECREF(args[1]);
            }
        } else {
            Event ev = heap_pop(e);
            r = call_event(ev.fn, now, ev.args);
            Py_DECREF(ev.fn);
            Py_XDECREF(ev.args);
        }
        Py_DECREF(now);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
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
 * lists, the two queue views and the armed-decision flag. */
typedef struct {
    PyObject *ch, *ready, *open_row, *hits, *acts, *confs, *reads, *writes;
    char pending;
} ChanView;

typedef struct {
    PyObject_HEAD
    char drain_mode;
    PyObject *engine, *dram, *policy, *queues, *stats, *ctx, *spans;
    PyObject *space_waiters, *decode_cache, *timing_cls, *on_read_complete;
    PyObject *reads, *writes, *pending_reads, *pending_writes;
    PyObject *read_count, *lat_sum, *lat_max, *bytes_read, *bytes_written;
    PyObject *write_count;
    ChanView *chans;
    Py_ssize_t nch;
    int64_t capacity, off_bits, t_rp, t_rcd, t_cl, t_burst, t_wr, t_rrd;
    int64_t t_faw, drain_high, drain_low, overhead, line_bytes, horizon;
    char open_page;
} Ctrl;

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
    int64_t occ;
    if (ctrl_bound(c) < 0 || attr_i64(c->queues, s_occupancy, &occ) < 0)
        return -1;
    return occ < c->capacity;
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
    if (attr_i64(c->chans[ch].ch, s_busy_until, &busy) < 0)
        return -1;
    engine_arm(e, ch, busy > now ? busy : now);
    return 0;
}

/* The write-drain hysteresis: the no-transition test here, the transition
 * itself (stats, telemetry) in the Python _update_drain_mode. */
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

/* Accept r into the buffer: 1, 0 when full, -1 on error.  Decodes through
 * the mapper's shared memo, stamps arrival and age, files the request in
 * its queue and channel view, runs the drain test and kicks the channel. */
static int ctrl_enqueue(Ctrl *c, Request *r, int64_t now)
{
    int64_t occ, seq, ch, bank, row;
    PyObject *key, *coord, *view;
    int rc;
    if ((rc = ctrl_can_accept(c)) <= 0)
        return rc;
    if ((key = PyLong_FromLongLong(r->addr >> c->off_bits)) == NULL)
        return -1;
    coord = PyDict_GetItemWithError(c->decode_cache, key);
    Py_DECREF(key);
    if (coord != NULL)
        Py_INCREF(coord);
    else if (PyErr_Occurred()
             || (coord = PyObject_CallMethod(c->dram, "coord", "L",
                                             r->addr)) == NULL)
        return -1;
    rc = attr_i64(coord, s_channel, &ch) < 0
        || attr_i64(coord, s_bank, &bank) < 0
        || attr_i64(coord, s_row, &row) < 0 ? -1 : 0;
    Py_XSETREF(r->coord, coord);
    if (rc < 0)
        return -1;
    r->bank = bank;
    r->row = row;
    if (ch < 0 || ch >= c->nch) {
        PyErr_SetString(PyExc_IndexError, "decoded channel out of range");
        return -1;
    }
    r->arrival_cycle = now;
    if (attr_i64(c->queues, s_next_seq, &seq) < 0
        || set_attr_i64(c->queues, s_next_seq, seq + 1) < 0
        || attr_i64(c->queues, s_occupancy, &occ) < 0
        || set_attr_i64(c->queues, s_occupancy, occ + 1) < 0)
        return -1;
    r->seq = seq;
    if (r->is_write) {
        view = c->chans[ch].writes;
        rc = PyList_Append(c->writes, (PyObject *)r) < 0
            || add_item(c->pending_writes, r->core_id, 1) < 0 ? -1 : 0;
    } else {
        view = c->chans[ch].reads;
        rc = PyList_Append(c->reads, (PyObject *)r) < 0
            || add_item(c->pending_reads, r->core_id, 1) < 0 ? -1 : 0;
    }
    if (rc < 0 || PyList_Append(view, (PyObject *)r) < 0
        || ctrl_drain_check(c, now) < 0 || ctrl_kick(c, ch, now) < 0)
        return -1;
    return 1;
}

/* enqueue(req, now) -> bool: False when the buffer is full; the caller
 * then stalls and registers through wait_for_space. */
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
    if (c->space_waiters == NULL)
        return closed("controller");
    return PyList_Append(c->space_waiters, callback);
}

/* wait_for_space(callback): a one-shot callback for the next freed slot. */
static PyObject *ctrl_wait_for_space_py(Ctrl *c, PyObject *callback)
{
    return done_or_null(ctrl_wait_for_space(c, callback));
}

/* Scan one queue view for the scheduling point: arrived requests whose
 * bank is ready within the horizon go to out (when out is not NULL), the
 * earliest later bank-ready cycle to *wake, the earliest future arrival
 * to *future, and whether any request has arrived to *arrived. */
static int scan_view(PyObject *view, PyObject *ready, int64_t now,
                     int64_t horizon, PyObject *out, int64_t *wake,
                     int64_t *future, int *arrived)
{
    Py_ssize_t i, n = PyList_GET_SIZE(view);
    for (i = 0; i < n; i++) {
        Request *r = as_request(PyList_GET_ITEM(view, i));
        int64_t t;
        if (r == NULL)
            return -1;
        if (r->arrival_cycle <= now) {
            *arrived = 1;
            if (item_i64(ready, r->bank, &t) < 0)
                return -1;
            if (t <= horizon) {
                if (PyList_Append(out, (PyObject *)r) < 0)
                    return -1;
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

/* TransactionTiming(...) for dram.observer, then the observer call. */
static int notify_observer(Ctrl *c, PyObject *observer, Request *r,
                           int64_t cas, int64_t data_start, int64_t data_end,
                           int hit, int64_t bank_start, int conflict,
                           int keep_open)
{
    PyObject *v[6], *timing, *args[5];
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
    args[0] = r->coord != NULL ? r->coord : Py_None;
    args[1] = timing;
    args[2] = r->is_write ? Py_True : Py_False;
    args[3] = keep_open ? Py_True : Py_False;
    args[4] = conflict ? Py_True : Py_False;
    Py_INCREF(observer);
    rc = call_drop(PyObject_Vectorcall(observer, args, 5, NULL));
    Py_DECREF(observer);
    Py_DECREF(timing);
done:
    for (i = 0; i < 6; i++)
        Py_XDECREF(v[i]);
    return rc;
}

/* Observation only: copy the resolved stamps onto a sampled request's
 * span and hand it to the collector. */
static int stamp_span(Ctrl *c, Request *r, PyObject *ch, int64_t now,
                      int64_t bank_start, int64_t cas, int64_t data_start,
                      int64_t data_end, int hit, int conflict)
{
    PyObject *span = r->span, *index;
    int rc;
    Py_INCREF(span);
    rc = (set_attr_i64(span, s_arrival, r->arrival_cycle) < 0
          || set_attr_i64(span, s_pick, now) < 0
          || PyObject_SetAttr(span, s_track, s_controller_track) < 0) ? -1 : 0;
    if (rc == 0) {
        if ((index = PyObject_GetAttr(ch, s_index)) == NULL)
            rc = -1;
        else {
            rc = PyObject_SetAttr(span, s_channel, index);
            Py_DECREF(index);
        }
    }
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
        } else {
            rc = call_drop(PyObject_CallMethodOneArg(c->spans, s_finish, span));
        }
    }
    Py_DECREF(span);
    return rc;
}

/* Commit r on channel cv at now: queue removal, the page policy, the DDR2
 * timing against the channel's bank lists and data bus (the rules are
 * listed in repro.dram.channel), the observer, the stats, the completion
 * lane and the span stamps. */
static int ctrl_commit(Ctrl *c, Py_ssize_t channel, Request *r, int64_t now)
{
    ChanView *cv = &c->chans[channel];
    int64_t bank = r->bank, row = r->row, core = r->core_id, occ;
    int64_t rc_bank, start, bank_start, orow, cas, act, data_start;
    int64_t data_end, bus, recovery, lat, done, t, v;
    int is_write = r->is_write, keep_open, hit, conflict = 0;
    PyObject *observer;

    if (attr_i64(c->queues, s_occupancy, &occ) < 0
        || set_attr_i64(c->queues, s_occupancy, occ - 1) < 0)
        return -1;
    if (is_write) {
        if (remove_item(c->writes, (PyObject *)r) < 0
            || add_item(c->pending_writes, core, -1) < 0
            || remove_item(cv->writes, (PyObject *)r) < 0)
            return -1;
    } else {
        if (remove_item(c->reads, (PyObject *)r) < 0
            || add_item(c->pending_reads, core, -1) < 0
            || remove_item(cv->reads, (PyObject *)r) < 0)
            return -1;
    }
    /* Page policy.  Closed (paper default): keep the row latched only
     * while another queued request would hit it.  Open: always. */
    keep_open = 1;
    if (!c->open_page && (keep_open = row_wanted(cv->reads, bank, row)) == 0)
        keep_open = row_wanted(cv->writes, bank, row);
    if (keep_open < 0 || item_i64(cv->ready, bank, &rc_bank) < 0
        || item_i64(cv->open_row, bank, &orow) < 0)
        return -1;
    start = now > rc_bank ? now : rc_bank;
    bank_start = start;
    hit = orow == row;
    if (hit) {
        cas = start;
    } else {
        if (orow != -1) {
            start += c->t_rp;
            if (add_item(cv->confs, bank, 1) < 0)
                return -1;
            conflict = 1;
        }
        act = start;
        if (c->t_rrd || c->t_faw) {
            PyObject *acts = PyObject_GetAttr(cv->ch, s_act_times), *x;
            Py_ssize_t n;
            int rc = -1;
            if (acts == NULL)
                return -1;
            if ((n = PySequence_Size(acts)) < 0)
                goto acts_done;
            if (c->t_rrd && n) {
                if ((x = PySequence_GetItem(acts, n - 1)) == NULL)
                    goto acts_done;
                rc = as_i64(x, &t);
                Py_DECREF(x);
                if (rc < 0)
                    goto acts_done;
                rc = -1;
                if (t + c->t_rrd > act)
                    act = t + c->t_rrd;
            }
            if (c->t_faw && n == 4) {
                if ((x = PySequence_GetItem(acts, 0)) == NULL)
                    goto acts_done;
                rc = as_i64(x, &t);
                Py_DECREF(x);
                if (rc < 0)
                    goto acts_done;
                rc = -1;
                if (t + c->t_faw > act)
                    act = t + c->t_faw;
            }
            if ((x = PyLong_FromLongLong(act)) == NULL)
                goto acts_done;
            rc = call_drop(PyObject_CallMethodOneArg(acts, s_append, x));
            Py_DECREF(x);
        acts_done:
            Py_DECREF(acts);
            if (rc < 0)
                return -1;
        }
        cas = act + c->t_rcd;
    }
    data_start = cas + c->t_cl;
    if (attr_i64(cv->ch, s_bus_free_cycle, &bus) < 0)
        return -1;
    if (data_start < bus)
        data_start = bus;
    data_end = data_start + c->t_burst;
    if (set_attr_i64(cv->ch, s_bus_free_cycle, data_end) < 0
        || set_attr_i64(cv->ch, s_busy_until, now + c->t_burst) < 0
        || add_item(hit ? cv->hits : cv->acts, bank, 1) < 0)
        return -1;
    recovery = is_write ? c->t_wr : 0;
    if (set_item_i64(cv->open_row, bank, keep_open ? row : -1) < 0
        || set_item_i64(cv->ready, bank, keep_open ? data_end + recovery
                        : data_end + recovery + c->t_rp) < 0
        || add_attr(cv->ch, s_transactions, 1) < 0
        || (is_write && add_attr(cv->ch, s_writes, 1) < 0)
        || add_attr(cv->ch, s_data_cycles, data_end - data_start) < 0)
        return -1;
    if ((observer = PyObject_GetAttr(c->dram, s_observer)) == NULL)
        return -1;
    if (observer != Py_None
        && notify_observer(c, observer, r, cas, data_start, data_end, hit,
                           bank_start, conflict, keep_open) < 0) {
        Py_DECREF(observer);
        return -1;
    }
    Py_DECREF(observer);
    r->issue_cycle = now;
    r->row_hit = (char)hit;
    if (is_write) {
        r->done_cycle = data_end;
        if (add_item(c->write_count, core, 1) < 0
            || add_item(c->bytes_written, core, c->line_bytes) < 0)
            return -1;
    } else {
        /* Reads pay the controller overhead on the return path. */
        done = data_end + c->overhead;
        r->done_cycle = done;
        lat = done - r->arrival_cycle;
        if (add_item(c->read_count, core, 1) < 0
            || add_item(c->lat_sum, core, lat) < 0
            || item_i64(c->lat_max, core, &v) < 0
            || (lat > v && set_item_i64(c->lat_max, core, lat) < 0)
            || add_item(c->bytes_read, core, c->line_bytes) < 0
            || (hit && add_attr(c->stats, s_read_row_hits, 1) < 0))
            return -1;
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
        && stamp_span(c, r, cv->ch, now, bank_start, cas, data_start,
                      data_end, hit, conflict) < 0)
        return -1;
    return 0;
}

/* One scheduling point.  Precedence: drain writes > reads > idle writes.
 * Requests whose arrival_cycle lies in the future are invisible (cores
 * running inside their fetch lookahead enqueue future-dated requests), and
 * requests on banks busy beyond now + horizon are ineligible; when nothing
 * is eligible the point re-arms at the earliest future arrival or
 * bank-ready cycle.  The policy is called once per decision with the
 * candidates in queue order, hit-first filtered when its context says so. */
static int ctrl_point(Ctrl *c, int64_t now, Py_ssize_t channel)
{
    ChanView *cv = &c->chans[channel];
    const int64_t horizon = now + c->horizon;
    int64_t w_wake = NEVER, r_wake = NEVER, future = NEVER, r_future = NEVER;
    PyObject *cands = NULL, *writes = NULL, *res = NULL, *t = NULL;
    PyObject *args[3];
    int is_write = 0, rc = -1, arrived = 0, prefiltered = 0;
    int64_t occ;

    cv->pending = 0;
    if (ctrl_drain_check(c, now) < 0)
        return -1;
    if (c->drain_mode) {
        if ((writes = PyList_New(0)) == NULL
            || scan_view(cv->writes, cv->ready, now, horizon, writes, &w_wake,
                         &future, &arrived) < 0)
            goto done;
        if (arrived) {
            if (PyList_GET_SIZE(writes)) {
                cands = writes;
                writes = NULL;
                is_write = 1;
            } else {
                /* Drain wants a write but none is bank-ready: the re-arm
                 * horizon spans both queues' future arrivals. */
                Py_ssize_t i, n = PyList_GET_SIZE(cv->reads);
                for (i = 0; i < n; i++) {
                    Request *r = as_request(PyList_GET_ITEM(cv->reads, i));
                    if (r == NULL)
                        goto done;
                    if (r->arrival_cycle > now && r->arrival_cycle < future)
                        future = r->arrival_cycle;
                }
                rc = 0;
                if (min64(future, w_wake) != NEVER)
                    rc = ctrl_kick(c, channel, min64(future, w_wake));
                goto done;
            }
        }
    }
    if (cands == NULL) {
        if ((cands = PyList_New(0)) == NULL
            || scan_view(cv->reads, cv->ready, now, horizon, cands, &r_wake,
                         &r_future, &arrived) < 0)
            goto done;
        if (PyList_GET_SIZE(cands) == 0) {
            Py_CLEAR(cands);
            if (!c->drain_mode) {
                /* Idle-channel opportunism: writes proceed when no read
                 * wants the channel; only now is the write view scanned. */
                future = r_future;
                if ((writes = PyList_New(0)) == NULL
                    || scan_view(cv->writes, cv->ready, now, horizon, writes,
                                 &w_wake, &future, &arrived) < 0)
                    goto done;
            } else {
                /* The drain scan found no arrived write; it holds the
                 * write-queue future and an empty writes. */
                future = min64(future, r_future);
            }
            if (PyList_GET_SIZE(writes)) {
                cands = writes;
                writes = NULL;
                is_write = 1;
            } else {
                int64_t next = min64(future, min64(r_wake, w_wake));
                rc = next != NEVER ? ctrl_kick(c, channel, next) : 0;
                goto done; /* idle; the next enqueue kicks the channel */
            }
        }
    }
    /* -- policy selection -- */
    if ((t = PyLong_FromLongLong(now)) == NULL
        || PyObject_SetAttr(c->ctx, s_now, t) < 0)
        goto done;
    Py_SETREF(t, PyLong_FromSsize_t(channel));
    if (t == NULL || PyObject_SetAttr(c->ctx, s_channel, t) < 0
        || (res = PyObject_GetAttr(c->ctx, s_hits_prefiltered)) == NULL
        || (prefiltered = PyObject_IsTrue(res)) < 0)
        goto done;
    Py_CLEAR(res);
    if (prefiltered && PyList_GET_SIZE(cands) > 1) {
        /* The paper's command-level rule: row-buffer hits beat misses
         * regardless of core priority (Sections 3.2 / 4.1). */
        PyObject *hits = PyList_New(0);
        Py_ssize_t i, n = PyList_GET_SIZE(cands);
        int64_t orow;
        if (hits == NULL)
            goto done;
        for (i = 0; i < n; i++) {
            Request *r = (Request *)PyList_GET_ITEM(cands, i);
            if (item_i64(cv->open_row, r->bank, &orow) < 0
                || (orow == r->row && PyList_Append(hits, (PyObject *)r) < 0)) {
                Py_DECREF(hits);
                goto done;
            }
        }
        if (PyList_GET_SIZE(hits))
            Py_SETREF(cands, hits);
        else
            Py_DECREF(hits);
    }
    args[0] = c->policy;
    args[1] = cands;
    args[2] = c->ctx;
    res = PyObject_VectorcallMethod(is_write ? s_select_write : s_select_read,
                                    args, 3, NULL);
    if (res == NULL || as_request(res) == NULL
        || ctrl_commit(c, channel, (Request *)res, now) < 0
        || fan_out(&c->space_waiters, now) < 0
        || attr_i64(c->queues, s_occupancy, &occ) < 0)
        goto done;
    /* More work?  Re-arm at the channel's next issue opportunity. */
    rc = occ ? ctrl_kick(c, channel, now) : 0;
done:
    Py_XDECREF(cands);
    Py_XDECREF(writes);
    Py_XDECREF(res);
    Py_XDECREF(t);
    return rc;
}

static int ctrl_channel(Ctrl *c, PyObject *arg, Py_ssize_t *ch)
{
    int64_t v;
    if (ctrl_bound(c) < 0 || as_i64(arg, &v) < 0)
        return -1;
    if (v < 0 || v >= c->nch) {
        PyErr_SetString(PyExc_IndexError, "no such channel");
        return -1;
    }
    *ch = (Py_ssize_t)v;
    return 0;
}

/* _fast_point(now, channel): one scheduling point. */
static PyObject *ctrl_point_py(Ctrl *c, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t now;
    Py_ssize_t ch;
    if (nargs_are(nargs, 2) < 0 || as_i64(args[0], &now) < 0
        || ctrl_channel(c, args[1], &ch) < 0)
        return NULL;
    return done_or_null(ctrl_point(c, now, ch));
}

/* _fast_deliver(now, req): hand read data back to the core side, then
 * tell a policy that watches completions. */
static PyObject *ctrl_deliver_py(Ctrl *c, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    PyObject *fn, *argv[3], *r;
    Request *req;
    if (nargs_are(nargs, 2) < 0 || (req = as_request(args[1])) == NULL)
        return NULL;
    fn = req->on_complete != NULL ? req->on_complete : Py_None;
    argv[0] = (PyObject *)req;
    argv[1] = args[0];
    Py_INCREF(fn);
    r = PyObject_Vectorcall(fn, argv, 2, NULL);
    Py_DECREF(fn);
    if (call_drop(r) < 0)
        return NULL;
    if (c->on_read_complete != NULL && c->on_read_complete != Py_None) {
        argv[0] = PyLong_FromLongLong(req->core_id);
        argv[1] = PyLong_FromLongLong(c->line_bytes);
        argv[2] = args[0];
        fn = c->on_read_complete;
        Py_INCREF(fn);
        r = argv[0] && argv[1] ? PyObject_Vectorcall(fn, argv, 3, NULL) : NULL;
        Py_DECREF(fn);
        Py_XDECREF(argv[0]);
        Py_XDECREF(argv[1]);
        if (call_drop(r) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* _bind(...): take the objects the controller walks and the lane
 * callables.  Called once, by FastMemoryController.__init__. */
static PyObject *ctrl_bind(Ctrl *c, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "engine", "dram", "policy", "queues", "stats", "ctx",
        "transaction_timing", "on_read_complete", "write_drain_high",
        "write_drain_low", "overhead", "line_bytes", "open_page", NULL};
    PyObject *engine, *dram, *policy, *queues, *stats, *ctx, *timing_cls;
    PyObject *notify, *channels = NULL, *mapper = NULL, *timing = NULL;
    PyObject *rbc = NULL, *wbc = NULL;
    long long high, low, overhead, line_bytes;
    int open_page;
    Py_ssize_t i;

    if (c->chans != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the controller is already bound");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OOOOOOOOLLLLp", kwlist, &engine, &dram, &policy,
            &queues, &stats, &ctx, &timing_cls, &notify, &high, &low,
            &overhead, &line_bytes, &open_page))
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
    c->drain_high = high;
    c->drain_low = low;
    c->overhead = overhead;
    c->line_bytes = line_bytes;
    c->open_page = (char)open_page;
    if ((c->space_waiters = PyList_New(0)) == NULL
        || (channels = PyObject_GetAttr(dram, s_channels)) == NULL
        || (mapper = PyObject_GetAttr(dram, s_mapper)) == NULL
        || (timing = PyObject_GetAttr(dram, s_timing)) == NULL
        || attr_i64(mapper, s_off_bits, &c->off_bits) < 0
        || (c->decode_cache = PyObject_GetAttr(mapper, s_decode_cache)) == NULL
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
        || get_list(queues, s_pending_reads, &c->pending_reads) < 0
        || get_list(queues, s_pending_writes, &c->pending_writes) < 0
        || get_list(queues, s_reads_by_ch, &rbc) < 0
        || get_list(queues, s_writes_by_ch, &wbc) < 0
        || get_list(stats, s_read_count, &c->read_count) < 0
        || get_list(stats, s_read_latency_sum, &c->lat_sum) < 0
        || get_list(stats, s_read_latency_max, &c->lat_max) < 0
        || get_list(stats, s_bytes_read, &c->bytes_read) < 0
        || get_list(stats, s_bytes_written, &c->bytes_written) < 0
        || get_list(stats, s_write_count, &c->write_count) < 0)
        goto fail;
    if (!PyDict_Check(c->decode_cache) || !PyList_CheckExact(channels)) {
        PyErr_SetString(PyExc_TypeError,
                        "the decode memo must be a dict, the channels a list");
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
        PyObject *empty;
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
        cv->ch = PyList_GET_ITEM(channels, i);
        Py_INCREF(cv->ch);
        cv->reads = PyList_GET_ITEM(rbc, i);
        Py_INCREF(cv->reads);
        cv->writes = PyList_GET_ITEM(wbc, i);
        Py_INCREF(cv->writes);
        if (!PyList_CheckExact(cv->reads) || !PyList_CheckExact(cv->writes)) {
            PyErr_SetString(PyExc_TypeError, "queue views must be lists");
            goto fail;
        }
        if (get_list(cv->ch, s_ready, &cv->ready) < 0
            || get_list(cv->ch, s_open_row, &cv->open_row) < 0
            || get_list(cv->ch, s_hits, &cv->hits) < 0
            || get_list(cv->ch, s_acts, &cv->acts) < 0
            || get_list(cv->ch, s_confs, &cv->confs) < 0)
            goto fail;
    }
    Py_DECREF(channels);
    Py_DECREF(mapper);
    Py_DECREF(timing);
    Py_DECREF(rbc);
    Py_DECREF(wbc);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(channels);
    Py_XDECREF(mapper);
    Py_XDECREF(timing);
    Py_XDECREF(rbc);
    Py_XDECREF(wbc);
    return NULL;
}

/* _unbind(): drop the space waiters and the policy's completion hook. */
static PyObject *ctrl_unbind(Ctrl *c, PyObject *Py_UNUSED(ignored))
{
    PyObject *fresh = PyList_New(0);
    if (fresh == NULL)
        return NULL;
    Py_XSETREF(c->space_waiters, fresh);
    Py_CLEAR(c->on_read_complete);
    Py_RETURN_NONE;
}

#define CTRL_FIELDS(X) \
    X(engine) X(dram) X(policy) X(queues) X(stats) X(ctx) X(spans) \
    X(space_waiters) X(decode_cache) X(timing_cls) X(on_read_complete) \
    X(reads) X(writes) X(pending_reads) X(pending_writes) X(read_count) \
    X(lat_sum) X(lat_max) X(bytes_read) X(bytes_written) X(write_count)
#define CHAN_FIELDS(X) \
    X(ch) X(ready) X(open_row) X(hits) X(acts) X(confs) X(reads) X(writes)

static int ctrl_traverse(Ctrl *c, visitproc visit, void *arg)
{
    Py_ssize_t i;
#define VISIT(f) Py_VISIT(c->f);
    CTRL_FIELDS(VISIT)
#undef VISIT
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
    PyMem_Free(c->chans);
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
    CMEMBER("_decode_cache", T_OBJECT, decode_cache, READONLY,
            "the address mapper's shared decode memo"),
    CMEMBER("_space_waiters", T_OBJECT, space_waiters, READONLY,
            "callbacks waiting for a free buffer slot"),
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

/* One core's side of the hierarchy: its L1 and its MSHR file. */
typedef struct {
    PyObject *sets, *stats, *mshr, *entries;
    int64_t off, mask, assoc, mshr_cap;
} CoreSide;

typedef struct {
    PyObject_HEAD
    long long l2_outstanding;
    char space_watch_armed;
    PyObject *unblock_waiters, *spans, *controller;
    PyObject *l2_sets, *l2_stats, *store_pending, *owner, *l2_misses;
    PyObject *enqueue, *on_fill, *on_space_freed, *emit_writeback;
    CoreSide *cores;
    Py_ssize_t ncores;
    int64_t l2_off, l2_mask, l2_assoc, l2_mshr_cap;
} Hier;

static PyTypeObject HierType;

static int hier_core(Hier *h, int64_t core_id, CoreSide **out)
{
    if (h->cores == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the hierarchy is not bound");
        return -1;
    }
    if (core_id < 0 || core_id >= h->ncores) {
        PyErr_SetString(PyExc_IndexError, "core id out of range");
        return -1;
    }
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
    if (PyDict_GET_SIZE(k->entries) >= k->mshr_cap
        || h->l2_outstanding >= h->l2_mshr_cap)
        return 1;
    rc = ctrl_can_accept((Ctrl *)h->controller);
    return rc < 0 ? -1 : !rc;
}

/* Would a miss of line from this core come back BLOCKED right now?
 * Membership tests only.  1, 0 or -1. */
static int hier_would_block(Hier *h, CoreSide *k, int64_t line)
{
    int rc = dict_has(k->entries, line);
    if (rc != 0)
        return rc < 0 ? -1 : 0; /* merges */
    return mshr_blocked(h, k);
}

/* Register a stalled core's callback for the next structural release and,
 * unless it is armed already, arm the one controller-space watch
 * (_on_space_freed). */
static int hier_wait_unblock(Hier *h, PyObject *callback)
{
    if (!PyList_CheckExact(h->unblock_waiters)) {
        PyErr_SetString(PyExc_TypeError, "_unblock_waiters must be a list");
        return -1;
    }
    if (PyList_Append(h->unblock_waiters, callback) < 0)
        return -1;
    if (h->space_watch_armed)
        return 0;
    if (h->on_space_freed == NULL)
        return closed("hierarchy");
    h->space_watch_armed = 1;
    return ctrl_wait_for_space((Ctrl *)h->controller, h->on_space_freed);
}

/* A sampled read, or the collector's cheap path for an unsampled one.
 * Keep in sync with SpanCollector.start_request: for an offer that will
 * not be sampled (_count + 1 < sample_every) it pops the core's stall
 * stamp and counts the offer; any other offer calls start_request. */
static int offer_read(Hier *h, PyObject *core, PyObject *line, PyObject *now,
                      Request *r)
{
    PyObject *spans = h->spans, *blocked, *span;
    int64_t count, every;
    int rc;
    if (attr_i64(spans, s_count, &count) < 0
        || attr_i64(spans, s_sample_every, &every) < 0)
        return -1;
    if (count + 1 < every) {
        int64_t offered;
        if ((blocked = PyObject_GetAttr(spans, s_blocked)) == NULL)
            return -1;
        rc = PyDict_Check(blocked) ? 0 : -1;
        if (rc < 0)
            PyErr_SetString(PyExc_TypeError, "_blocked must be a dict");
        else if (PyDict_GET_SIZE(blocked)
                 && (rc = PyDict_Contains(blocked, core)) > 0)
            rc = PyDict_DelItem(blocked, core);
        Py_DECREF(blocked);
        if (rc < 0 || attr_i64(spans, s_offered, &offered) < 0
            || set_attr_i64(spans, s_offered, offered + 1) < 0
            || set_attr_i64(spans, s_count, count + 1) < 0)
            return -1;
        return 0;
    }
    span = PyObject_CallMethodObjArgs(spans, s_start_request, core, line,
                                      s_read, now, NULL);
    if (span == NULL)
        return -1;
    Py_XSETREF(r->span, span);
    return 0;
}

/* _after_l2_miss(core_id, line, is_write, now, waiter) -> int: one
 * reference that missed both caches (line aligned).  PENDING (a new
 * memory request) or MERGED (joined an in-flight miss), for both of which
 * waiter fires when the data returns, or BLOCKED (the core registers for
 * an unblock and retries). */
static PyObject *hier_after_l2_miss(Hier *h, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    PyObject *core = args[0], *line = args[1], *now = args[3];
    PyObject *waiter = args[4], *waiters, *r_ok;
    int64_t core_id, l, t, n, peak;
    int is_write, rc;
    CoreSide *k;
    Request *r;

    if (nargs_are(nargs, 5) < 0 || as_i64(core, &core_id) < 0
        || as_i64(line, &l) < 0 || as_i64(now, &t) < 0
        || (is_write = truthy(args[2])) < 0 || hier_core(h, core_id, &k) < 0)
        return NULL;
    waiters = PyDict_GetItemWithError(k->entries, line);
    if (waiters != NULL) {
        /* Merge onto the in-flight miss. */
        PyObject *on_merge;
        if (waiter != Py_None && PyList_Append(waiters, waiter) < 0)
            return NULL;
        if (add_attr(k->mshr, s_merges, 1) < 0
            || (on_merge = PyObject_GetAttr(k->mshr, s_on_merge)) == NULL)
            return NULL;
        if (on_merge != Py_None) {
            PyObject *argv[2] = {line, now};
            rc = call_drop(PyObject_Vectorcall(on_merge, argv, 2, NULL));
        } else {
            rc = 0;
        }
        Py_DECREF(on_merge);
        if (rc < 0 || (is_write && PySet_Add(h->store_pending, line) < 0))
            return NULL;
        return PyLong_FromLong(MERGED);
    }
    if (PyErr_Occurred() || (rc = mshr_blocked(h, k)) < 0)
        return NULL;
    if (rc)
        return PyLong_FromLong(BLOCKED);
    /* -- a new MSHR entry -- */
    if ((waiters = PyList_New(0)) == NULL)
        return NULL;
    rc = (waiter != Py_None && PyList_Append(waiters, waiter) < 0)
        || PyDict_SetItem(k->entries, line, waiters) < 0 ? -1 : 0;
    Py_DECREF(waiters);
    n = PyDict_GET_SIZE(k->entries);
    if (rc < 0 || add_attr(k->mshr, s_allocations, 1) < 0
        || attr_i64(k->mshr, s_peak_occupancy, &peak) < 0
        || (n > peak && set_attr_i64(k->mshr, s_peak_occupancy, n) < 0))
        return NULL;
    h->l2_outstanding++;
    if (add_item(h->l2_misses, core_id, 1) < 0
        || (is_write && PySet_Add(h->store_pending, line) < 0))
        return NULL;
    if (h->on_fill == NULL || h->enqueue == NULL) {
        closed("hierarchy");
        return NULL;
    }
    if ((r = new_request(l, core_id, 0, t, h->on_fill)) == NULL)
        return NULL;
    if (h->spans != NULL && h->spans != Py_None
        && offer_read(h, core, line, now, r) < 0) {
        Py_DECREF(r);
        return NULL;
    }
    {
        PyObject *argv[2] = {(PyObject *)r, now};
        r_ok = PyObject_Vectorcall(h->enqueue, argv, 2, NULL);
    }
    Py_DECREF(r);
    if (r_ok == NULL || (rc = PyObject_IsTrue(r_ok)) < 0) {
        Py_XDECREF(r_ok);
        return NULL;
    }
    Py_DECREF(r_ok);
    if (!rc) {
        PyErr_SetString(PyExc_AssertionError, "can_accept() checked above");
        return NULL;
    }
    return PyLong_FromLong(PENDING);
}

/* A dirty line leaves for memory through the Python writeback path. */
static int writeback(Hier *h, PyObject *core, int64_t addr, int64_t now)
{
    PyObject *argv[3];
    int rc;
    if (h->emit_writeback == NULL)
        return closed("hierarchy");
    argv[0] = core;
    argv[1] = PyLong_FromLongLong(addr);
    argv[2] = PyLong_FromLongLong(now);
    rc = argv[1] && argv[2]
        ? call_drop(PyObject_Vectorcall(h->emit_writeback, argv, 3, NULL)) : -1;
    Py_XDECREF(argv[1]);
    Py_XDECREF(argv[2]);
    return rc;
}

/* SetAssocCache.set_dirty on the L2: mark a resident line dirty in place
 * (its LRU position unchanged).  1 if resident, 0 if not, -1 on error. */
static int l2_set_dirty(Hier *h, int64_t addr)
{
    int64_t tag = addr >> h->l2_off;
    PyObject *s = set_at(h->l2_sets, tag & h->l2_mask), *key;
    int rc;
    if (s == NULL || (key = PyLong_FromLongLong(tag)) == NULL)
        return -1;
    rc = PyDict_Contains(s, key);
    if (rc == 1 && PyDict_SetItem(s, key, Py_True) < 0)
        rc = -1;
    Py_DECREF(key);
    return rc;
}

/* Install line in core's L1 with dirty (an L2 hit or a fill).  A dirty L1
 * victim updates the L2 copy; if the L2 lost the line meanwhile
 * (non-inclusive drift), it is written back to memory directly. */
static int l1_install(Hier *h, CoreSide *k, PyObject *core, int64_t line,
                      PyObject *dirty, int64_t now)
{
    int64_t vtag = 0;
    PyObject *vdirty;
    int rc, d;
    rc = install(set_at(k->sets, (line >> k->off) & k->mask), line >> k->off,
                 dirty, 1, k->assoc, k->stats, &vtag, &vdirty);
    if (rc <= 0)
        return rc;
    d = PyObject_IsTrue(vdirty);
    Py_DECREF(vdirty);
    if (d <= 0)
        return d;
    if ((rc = l2_set_dirty(h, vtag << k->off)) != 0)
        return rc < 0 ? -1 : 0;
    return writeback(h, core, vtag << k->off, now);
}

/* An L2 victim: drop its owner record, invalidate the owner's L1 copy
 * (merging that copy's dirtiness), and write it back if dirty. */
static int l2_evicted(Hier *h, int64_t addr, PyObject *vdirty, int64_t now)
{
    PyObject *key = PyLong_FromLongLong(addr), *owner, *s, *tag, *l1v;
    int64_t o;
    int dirty, rc = -1;
    CoreSide *k;
    if (key == NULL)
        return -1;
    if ((owner = PyDict_GetItemWithError(h->owner, key)) != NULL) {
        Py_INCREF(owner);
        if (PyDict_DelItem(h->owner, key) < 0)
            goto done;
    } else if (PyErr_Occurred()) {
        goto done_key;
    } else if ((owner = PyLong_FromLong(0)) == NULL) {
        goto done_key;
    }
    if ((dirty = PyObject_IsTrue(vdirty)) < 0 || as_i64(owner, &o) < 0)
        goto done;
    if (o >= 0 && o < h->ncores) {
        k = &h->cores[o];
        if ((s = set_at(k->sets, (addr >> k->off) & k->mask)) == NULL
            || (tag = PyLong_FromLongLong(addr >> k->off)) == NULL)
            goto done;
        l1v = PyDict_GetItemWithError(s, tag);
        if (l1v != NULL) {
            int d = dirty ? 1 : PyObject_IsTrue(l1v);
            if (d < 0 || PyDict_DelItem(s, tag) < 0) {
                Py_DECREF(tag);
                goto done;
            }
            dirty = d;
        }
        Py_DECREF(tag);
        if (PyErr_Occurred())
            goto done;
    }
    rc = dirty ? writeback(h, owner, addr, now) : 0;
done:
    Py_DECREF(owner);
done_key:
    Py_DECREF(key);
    return rc;
}

/* _on_fill(req, now): read data returned from DRAM.  Install the line in
 * the L2 (a resident line keeps its dirty flag) and the requester's L1
 * (dirty when a store merged onto the miss), retire the MSHR entry and
 * wake its waiters, then the cores stalled on a structural hazard. */
static PyObject *hier_on_fill(Hier *h, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *key = NULL, *core = NULL, *waiters = NULL, *vdirty;
    int64_t now, line, vtag = 0;
    Request *r;
    CoreSide *k;
    int dirty, rc = -1;
    Py_ssize_t i;

    if (nargs_are(nargs, 2) < 0 || (r = as_request(args[0])) == NULL
        || as_i64(args[1], &now) < 0 || hier_core(h, r->core_id, &k) < 0)
        return NULL;
    line = r->addr;
    if ((key = PyLong_FromLongLong(line)) == NULL
        || (core = PyLong_FromLongLong(r->core_id)) == NULL
        || (dirty = PySet_Contains(h->store_pending, key)) < 0
        || PySet_Discard(h->store_pending, key) < 0)
        goto done;
    /* -- L2 install -- */
    rc = install(set_at(h->l2_sets, (line >> h->l2_off) & h->l2_mask),
                 line >> h->l2_off, Py_False, 0, h->l2_assoc, h->l2_stats,
                 &vtag, &vdirty);
    if (rc < 0 || PyDict_SetItem(h->owner, key, core) < 0) {
        if (rc > 0)
            Py_DECREF(vdirty);
        rc = -1;
        goto done;
    }
    if (rc > 0) {
        rc = l2_evicted(h, vtag << h->l2_off, vdirty, now);
        Py_DECREF(vdirty);
        if (rc < 0)
            goto done;
    }
    rc = -1;
    if (l1_install(h, k, core, line, dirty ? Py_True : Py_False, now) < 0)
        goto done;
    h->l2_outstanding--;
    /* -- MSHR retirement -- */
    if ((waiters = PyDict_GetItemWithError(k->entries, key)) == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, key);
        goto done;
    }
    Py_INCREF(waiters);
    if (PyDict_DelItem(k->entries, key) < 0)
        goto done;
    if (!PyList_CheckExact(waiters)) {
        PyErr_SetString(PyExc_TypeError, "MSHR waiters must be a list");
        goto done;
    }
    for (i = 0; i < PyList_GET_SIZE(waiters); i++) {
        PyObject *w = PyList_GET_ITEM(waiters, i), *argv[2], *res;
        Py_INCREF(w);
        argv[1] = args[1];
        if (PyTuple_CheckExact(w) && PyTuple_GET_SIZE(w) == 2) {
            /* A (method, token) pair is the core kernel's closure-free
             * load waiter: the method takes the ROB token, not the line. */
            argv[0] = PyTuple_GET_ITEM(w, 1);
            res = PyObject_Vectorcall(PyTuple_GET_ITEM(w, 0), argv, 2, NULL);
        } else {
            argv[0] = key;
            res = PyObject_Vectorcall(w, argv, 2, NULL);
        }
        Py_DECREF(w);
        if (call_drop(res) < 0)
            goto done;
    }
    /* The collector tracks merges only onto sampled reads. */
    if (r->span != NULL && r->span != Py_None && h->spans != NULL
        && h->spans != Py_None
        && call_drop(PyObject_CallMethodObjArgs(h->spans, s_end_inflight, core,
                                                key, NULL)) < 0)
        goto done;
    rc = fan_out(&h->unblock_waiters, now);
done:
    Py_XDECREF(key);
    Py_XDECREF(core);
    Py_XDECREF(waiters);
    return done_or_null(rc);
}

/* _fill_l1(core_id, line, dirty, now): install line in core_id's L1 (the
 * core kernel's L2 hit path). */
static PyObject *hier_fill_l1(Hier *h, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t core_id, line, now;
    CoreSide *k;
    if (nargs_are(nargs, 4) < 0 || as_i64(args[0], &core_id) < 0
        || as_i64(args[1], &line) < 0 || as_i64(args[3], &now) < 0
        || hier_core(h, core_id, &k) < 0)
        return NULL;
    return done_or_null(l1_install(h, k, args[0], line, args[2], now));
}

/* _on_space_freed(now): a controller buffer slot freed; wake every core
 * stalled on a structural hazard (the hottest wake fan-out after fills). */
static PyObject *hier_on_space_freed(Hier *h, PyObject *arg)
{
    int64_t now;
    if (as_i64(arg, &now) < 0)
        return NULL;
    h->space_watch_armed = 0;
    return done_or_null(fan_out(&h->unblock_waiters, now));
}

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

/* _bind(...): take the objects the hierarchy walks and the callables it
 * calls out through.  Called once, by CacheHierarchy.__init__. */
static PyObject *hier_bind(Hier *h, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "controller", "l1d", "l2", "mshrs", "l2_mshr_cap", "store_pending",
        "owner", "l2_misses", "enqueue", "on_fill", "on_space_freed",
        "emit_writeback", NULL};
    PyObject *ctrl, *l1d, *l2, *mshrs, *pending, *owner, *misses, *enq;
    PyObject *fill, *freed, *wb;
    long long cap;
    Py_ssize_t i;

    if (h->cores != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the hierarchy is already bound");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OOOOLOOOOOOO", kwlist, &ctrl, &l1d, &l2, &mshrs,
            &cap, &pending, &owner, &misses, &enq, &fill, &freed, &wb))
        return NULL;
    if (!PyObject_TypeCheck(ctrl, &CtrlType) || !PyList_CheckExact(l1d)
        || !PyList_CheckExact(mshrs) || PyList_GET_SIZE(l1d) != PyList_GET_SIZE(mshrs)
        || !PySet_Check(pending) || !PyDict_Check(owner)
        || !PyList_CheckExact(misses)) {
        PyErr_SetString(PyExc_TypeError, "bad hierarchy parts");
        return NULL;
    }
    KEEP(h, controller, ctrl);
    KEEP(h, store_pending, pending);
    KEEP(h, owner, owner);
    KEEP(h, l2_misses, misses);
    KEEP(h, enqueue, enq);
    KEEP(h, on_fill, fill);
    KEEP(h, on_space_freed, freed);
    KEEP(h, emit_writeback, wb);
    h->l2_mshr_cap = cap;
    if ((h->unblock_waiters = PyList_New(0)) == NULL
        || cache_geometry(l2, &h->l2_sets, &h->l2_off, &h->l2_mask) < 0
        || attr_i64(l2, s_assoc, &h->l2_assoc) < 0
        || (h->l2_stats = PyObject_GetAttr(l2, s_stats)) == NULL)
        return NULL;
    h->ncores = PyList_GET_SIZE(l1d);
    if ((h->cores = PyMem_New(CoreSide, h->ncores ? h->ncores : 1)) == NULL)
        return PyErr_NoMemory();
    memset(h->cores, 0, sizeof(CoreSide) * (h->ncores ? h->ncores : 1));
    for (i = 0; i < h->ncores; i++) {
        CoreSide *k = &h->cores[i];
        PyObject *l1 = PyList_GET_ITEM(l1d, i);
        k->mshr = PyList_GET_ITEM(mshrs, i);
        Py_INCREF(k->mshr);
        if (cache_geometry(l1, &k->sets, &k->off, &k->mask) < 0
            || attr_i64(l1, s_assoc, &k->assoc) < 0
            || (k->stats = PyObject_GetAttr(l1, s_stats)) == NULL
            || attr_i64(k->mshr, s_capacity, &k->mshr_cap) < 0
            || (k->entries = PyObject_GetAttr(k->mshr, s_entries)) == NULL)
            return NULL;
        if (!PyDict_Check(k->entries)) {
            PyErr_SetString(PyExc_TypeError, "MSHR entries must be a dict");
            return NULL;
        }
    }
    Py_RETURN_NONE;
}

/* _unbind(): drop the callables and waiters that tie the hierarchy, its
 * controller and the cores into reference cycles. */
static PyObject *hier_unbind(Hier *h, PyObject *Py_UNUSED(ignored))
{
    PyObject *fresh = PyList_New(0);
    if (fresh == NULL)
        return NULL;
    Py_XSETREF(h->unblock_waiters, fresh);
    Py_CLEAR(h->enqueue);
    Py_CLEAR(h->on_fill);
    Py_CLEAR(h->on_space_freed);
    Py_CLEAR(h->emit_writeback);
    Py_RETURN_NONE;
}

#define HIER_FIELDS(X) \
    X(unblock_waiters) X(spans) X(controller) X(l2_sets) X(l2_stats) \
    X(store_pending) X(owner) X(l2_misses) X(enqueue) X(on_fill) \
    X(on_space_freed) X(emit_writeback)
#define SIDE_FIELDS(X) X(sets) X(stats) X(mshr) X(entries)

static int hier_traverse(Hier *h, visitproc visit, void *arg)
{
    Py_ssize_t i;
#define VISIT(f) Py_VISIT(h->f);
    HIER_FIELDS(VISIT)
#undef VISIT
    for (i = 0; h->cores != NULL && i < h->ncores; i++) {
#define VISIT(f) Py_VISIT(h->cores[i].f);
        SIDE_FIELDS(VISIT)
#undef VISIT
    }
    return 0;
}

static int hier_clear(Hier *h)
{
    Py_ssize_t i;
#define CLEAR(f) Py_CLEAR(h->f);
    HIER_FIELDS(CLEAR)
#undef CLEAR
    for (i = 0; h->cores != NULL && i < h->ncores; i++) {
#define CLEAR(f) Py_CLEAR(h->cores[i].f);
        SIDE_FIELDS(CLEAR)
#undef CLEAR
    }
    return 0;
}

static void hier_dealloc(Hier *h)
{
    PyObject_GC_UnTrack(h);
    hier_clear(h);
    PyMem_Free(h->cores);
    Py_TYPE(h)->tp_free((PyObject *)h);
}

#define HMEMBER(name, type, field, flags, doc) \
    {name, type, offsetof(Hier, field), flags, doc}

static PyMemberDef hier_members[] = {
    HMEMBER("_l2_outstanding", T_LONGLONG, l2_outstanding, 0,
            "L2 misses in flight"),
    HMEMBER("_space_watch_armed", T_BOOL, space_watch_armed, 0,
            "whether a controller-space watch is armed (one at a time)"),
    HMEMBER("_unblock_waiters", T_OBJECT, unblock_waiters, 0,
            "one-shot callbacks of cores stalled on a structural hazard"),
    HMEMBER("spans", T_OBJECT, spans, 0,
            "request-lifecycle span collector, or None"),
    HMEMBER("controller", T_OBJECT, controller, READONLY, NULL),
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
};

/* ======================================================================
 * CoreKernel
 * ====================================================================== */

typedef struct {
    PyObject_HEAD
    /* identity, budget and geometry (read-only from Python) */
    long long core_id, target_insts, warmup_insts, lookahead;
    int64_t q, rob_size, l1_lat, l2_lat;
    int64_t l1_off, l1_mask, l2_off, l2_mask, line_mask;
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
    /* the shared memory path; side is this core's part of the hierarchy */
    PyObject *hierarchy, *l1, *l2, *l1_sets, *l2_sets, *demand, *py_core_id;
    CoreSide *side;
    /* a recording's columns (NULL for other trace sources) */
    PyObject *r_gaps, *r_addrs, *r_writes;
    /* calls out of the kernel */
    PyObject *after_l2_miss, *fill_l1, *schedule, *grow, *next_op;
    PyObject *wake_cb, *unblock_cb, *load_ready_cb, *store_cb;
} Core;

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
                return core_closed();
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
        return core_closed();
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
        return core_closed();
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

/* hierarchy._fill_l1(core_id, line, is_write, cycle) */
static int fill_l1(Core *c, int64_t line, int64_t cycle)
{
    PyObject *args[4];
    int rc;
    if (c->fill_l1 == NULL)
        return core_closed();
    args[0] = c->py_core_id;
    args[1] = PyLong_FromLongLong(line);
    args[2] = c->cur_write;
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

/* SpanCollector.note_blocked on the collector's own _blocked dict (keep
 * in sync with spans.py): keep the first stall per (core, line), so the
 * eventual request's span can attribute the structural-stall wait. */
static int note_blocked(Core *c, int64_t cycle, int64_t line)
{
    PyObject *blocked = PyObject_GetAttr(c->spans, s_blocked), *prev, *stamp;
    int64_t prev_line;
    int rc = -1;
    if (blocked == NULL)
        return -1;
    if (!PyDict_Check(blocked)) {
        PyErr_SetString(PyExc_TypeError, "_blocked must be a dict");
        goto done;
    }
    prev = PyDict_GetItemWithError(blocked, c->py_core_id);
    if (prev == NULL && PyErr_Occurred())
        goto done;
    if (prev != NULL) {
        if (!PyTuple_Check(prev) || PyTuple_GET_SIZE(prev) != 2) {
            PyErr_SetString(PyExc_TypeError, "a stall stamp is (cycle, line)");
            goto done;
        }
        if (as_i64(PyTuple_GET_ITEM(prev, 1), &prev_line) < 0)
            goto done;
        if (prev_line == line) {
            rc = 0; /* a retry of the same access keeps its first stamp */
            goto done;
        }
    }
    if ((stamp = Py_BuildValue("(LL)", (long long)cycle,
                               (long long)line)) != NULL) {
        rc = PyDict_SetItem(blocked, c->py_core_id, stamp);
        Py_DECREF(stamp);
    }
done:
    Py_DECREF(blocked);
    return rc;
}

/* A miss that found its MSHR file, the L2 MSHRs or the controller buffer
 * full: count the stall, stamp it for spans and wait for a release. */
static int block(Core *c, int64_t cycle, int64_t line)
{
    if (add_attr(c->stats, s_structural_stalls, 1) < 0)
        return -1;
    if (c->spans != NULL && c->spans != Py_None
        && note_blocked(c, cycle, line) < 0)
        return -1;
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
                    rob_push(c, fetched, NEVER);
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
        if (add_item(c->demand, c->core_id, n_demand) < 0
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
        return core_closed();
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
    int64_t addr = c->cur_addr, tag = addr >> c->l1_off, line, t2;
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
            rc = (add_item(c->demand, c->core_id, 1) < 0
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

/* _bind(...): attach the core to its memory path and trace, take the
 * callables the kernel calls out through, and pull the first op.  Called
 * once, by TraceCore.__init__. */
static PyObject *core_bind(Core *c, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "core_id", "target_insts", "warmup_insts", "lookahead",
        "issue_width", "rob_size", "hierarchy", "replay", "trace_pos",
        "after_l2_miss", "fill_l1", "schedule", "grow", "next_op", "wake",
        "on_unblock", "on_load_ready", "store_data", NULL};
    long long core_id, target, warmup, lookahead, width, rob_size, pos;
    PyObject *h, *replay, *after, *fill, *sched, *grow, *next;
    PyObject *wake, *unblock, *ready, *store, *l1d, *l1;
    PyObject *v;
    int64_t n;
    Hier *hier;

    if (c->hierarchy != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the core is already bound");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$LLLLLLOOLOOOOOOOOO", kwlist, &core_id, &target,
            &warmup, &lookahead, &width, &rob_size, &h, &replay, &pos, &after,
            &fill, &sched, &grow, &next, &wake, &unblock, &ready, &store))
        return NULL;
    if (core_id < 0 || target < 1 || warmup < 0 || lookahead < 1 || width < 1
        || rob_size < 1 || pos < 0) {
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
    KEEP(c, hierarchy, h);
    if ((l1d = PyObject_GetAttr(h, s_l1d)) == NULL)
        return NULL;
    l1 = PySequence_GetItem(l1d, (Py_ssize_t)core_id);
    Py_DECREF(l1d);
    if (l1 == NULL)
        return NULL;
    c->l1 = l1;
    if ((c->l2 = PyObject_GetAttr(h, s_l2)) == NULL)
        return NULL;
    if (cache_geometry(c->l1, &c->l1_sets, &c->l1_off, &c->l1_mask) < 0
        || cache_geometry(c->l2, &c->l2_sets, &c->l2_off, &c->l2_mask) < 0
        || attr_i64(h, s_line_mask, &c->line_mask) < 0
        || attr_i64(h, s_l1_hit_latency, &c->l1_lat) < 0
        || attr_i64(h, s_l2_hit_latency, &c->l2_lat) < 0
        || get_list(h, s_demand_accesses, &c->demand) < 0)
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
    KEEP(c, replay_ops, replay);
    KEEP(c, after_l2_miss, after);
    KEEP(c, fill_l1, fill);
    KEEP(c, schedule, sched);
    KEEP(c, grow, grow);
    KEEP(c, next_op, next);
    KEEP(c, wake_cb, wake);
    KEEP(c, unblock_cb, unblock);
    KEEP(c, load_ready_cb, ready);
    KEEP(c, store_cb, store);
    v = Py_False;
    KEEP(c, cur_write, v);
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
    X(hierarchy) X(l1) X(l2) X(l1_sets) X(l2_sets) X(demand) X(py_core_id) \
    X(r_gaps) X(r_addrs) X(r_writes) X(after_l2_miss) X(fill_l1) \
    X(schedule) X(grow) X(next_op) X(wake_cb) X(unblock_cb) \
    X(load_ready_cb) X(store_cb)

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
    c->side = NULL;
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

/* ======================================================================
 * module
 * ====================================================================== */

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core",
    "The simulator's model kernel: core, memory side and event loop.", -1, NULL
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
    INTERN(s_stats, "stats") INTERN(s_hits, "hits") INTERN(s_misses, "misses")
    INTERN(s_loads, "loads") INTERN(s_stores, "stores")
    INTERN(s_l1_hits, "l1_hits") INTERN(s_l2_hits, "l2_hits")
    INTERN(s_mem_requests, "mem_requests")
    INTERN(s_structural_stalls, "structural_stalls")
    INTERN(s_gap, "gap") INTERN(s_addr, "addr") INTERN(s_is_write, "is_write")
    INTERN(s_sets, "_sets") INTERN(s_off_bits, "_off_bits")
    INTERN(s_set_mask, "_set_mask") INTERN(s_assoc, "_assoc")
    INTERN(s_entries, "_entries") INTERN(s_capacity, "capacity")
    INTERN(s_l2, "l2") INTERN(s_line_mask, "_line_mask")
    INTERN(s_l1_hit_latency, "_l1_hit_latency")
    INTERN(s_l2_hit_latency, "_l2_hit_latency")
    INTERN(s_demand_accesses, "demand_accesses")
    INTERN(s_evictions, "evictions") INTERN(s_dirty_evictions, "dirty_evictions")
    INTERN(s_fills, "fills") INTERN(s_merges, "merges")
    INTERN(s_on_merge, "on_merge") INTERN(s_allocations, "allocations")
    INTERN(s_peak_occupancy, "peak_occupancy")
    INTERN(s_start_request, "start_request")
    INTERN(s_end_inflight, "end_inflight")
    INTERN(s_count, "_count") INTERN(s_sample_every, "sample_every")
    INTERN(s_blocked, "_blocked") INTERN(s_offered, "offered")
    INTERN(s_read, "read") INTERN(s_occupancy, "occupancy")
    INTERN(s_next_seq, "_next_seq") INTERN(s_channel, "channel")
    INTERN(s_bank, "bank") INTERN(s_row, "row") INTERN(s_l1d, "l1d")
    INTERN(s_busy_until, "busy_until")
    INTERN(s_bus_free_cycle, "bus_free_cycle")
    INTERN(s_transactions, "transactions") INTERN(s_writes, "writes")
    INTERN(s_data_cycles, "data_cycles") INTERN(s_act_times, "_act_times")
    INTERN(s_append, "append") INTERN(s_observer, "observer")
    INTERN(s_now, "now") INTERN(s_hits_prefiltered, "hits_prefiltered")
    INTERN(s_select_read, "select_read") INTERN(s_select_write, "select_write")
    INTERN(s_read_row_hits, "read_row_hits")
    INTERN(s_update_drain_mode, "_update_drain_mode")
    INTERN(s_index, "index") INTERN(s_arrival, "arrival")
    INTERN(s_pick, "pick") INTERN(s_track, "track")
    INTERN(s_controller_track, "controller")
    INTERN(s_bank_start, "bank_start") INTERN(s_cas, "cas")
    INTERN(s_data_start, "data_start") INTERN(s_data_end, "data_end")
    INTERN(s_done, "done") INTERN(s_row_hit, "row_hit")
    INTERN(s_conflict, "conflict") INTERN(s_finish, "finish")
    INTERN(s_channels, "channels") INTERN(s_mapper, "mapper")
    INTERN(s_decode_cache, "_decode_cache") INTERN(s_timing, "timing")
    INTERN(s_t_rp, "t_rp") INTERN(s_t_rcd, "t_rcd") INTERN(s_t_cl, "t_cl")
    INTERN(s_t_burst, "t_burst") INTERN(s_t_wr, "t_wr")
    INTERN(s_t_rrd, "t_rrd") INTERN(s_t_faw, "t_faw")
    INTERN(s_reads, "reads") INTERN(s_reads_by_ch, "reads_by_ch")
    INTERN(s_writes_by_ch, "writes_by_ch")
    INTERN(s_pending_reads, "pending_reads")
    INTERN(s_pending_writes, "pending_writes")
    INTERN(s_read_count, "read_count")
    INTERN(s_read_latency_sum, "read_latency_sum")
    INTERN(s_read_latency_max, "read_latency_max")
    INTERN(s_bytes_read, "bytes_read") INTERN(s_bytes_written, "bytes_written")
    INTERN(s_write_count, "write_count") INTERN(s_ready, "ready")
    INTERN(s_open_row, "open_row") INTERN(s_acts, "acts")
    INTERN(s_confs, "confs")
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
        || add_type(m, "CoreKernel", &CoreKernelType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

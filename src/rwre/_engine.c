/* The walk engine's step loop, compiled: the loop of ``clocks._python_loop``
 * with the race state in C arrays, and every weight vector, clock block and
 * child digest still drawn through the Python callables it is handed.
 *
 * ``clocks`` builds this file on first use (see ``clocks._compiled_loop``)
 * and calls ``walk`` with the same arguments as ``clocks._python_loop``:
 *
 *     walk(ids, par, dig, dep, dgs, n_slots, anchor_slot, limit, target,
 *          w8, sampler, init_block, adv_block, child_digest) -> bool
 *
 * The lists hold the discovery structure the run's set-up made: vertex 0,
 * the anchor, and for a full-tree run vertex 1, the root; ``ids`` holds
 * step 0's vertex.  ``walk`` appends to them, takes at most ``limit``
 * steps, and returns whether it stopped at level ``target`` (-2 for none).
 *
 * Per raced vertex it keeps one record of n = n_slots slots: the clock
 * sums, the rates (1.0 toward the parent), the jump counts, the child ids,
 * the index of each slot's current advance block in a shared pool of
 * eight-word blocks, and the pending slot.  All of it is allocated with
 * PyMem_Malloc, so tracemalloc sees it, and freed before ``walk`` returns
 * or raises.  An exception raised by a callback propagates unchanged; a
 * weight vector of other than n - 1 floats or a block of other than eight
 * words raises before anything is read from it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* A word w becomes the uniform (w >> 11) * 2**-53 + 2**-54, as ``streams``
 * maps it; its clock is -log(u) over the slot's rate. */
static inline double
exponential(uint64_t w)
{
    return -log((double)(w >> 11) * 0x1p-53 + 0x1p-54);
}

/* Grow ``*p`` (``*cap`` items of ``size`` bytes) to hold ``need`` items. */
static int
reserve(void **p, Py_ssize_t *cap, Py_ssize_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    Py_ssize_t cap2 = *cap ? *cap : 64;
    while (cap2 < need)
        cap2 *= 2;
    if ((size_t)cap2 > PY_SSIZE_T_MAX / size) {
        PyErr_NoMemory();
        return -1;
    }
    void *q = PyMem_Realloc(*p, (size_t)cap2 * size);
    if (q == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *p = q;
    *cap = cap2;
    return 0;
}

/* The eight words of one clock block a callback returned. */
static int
block_words(PyObject *blk, uint64_t *out)
{
    PyObject *seq = PySequence_Fast(blk, "a clock block must be a sequence");
    if (seq == NULL)
        return -1;
    int rc = -1;
    if (PySequence_Fast_GET_SIZE(seq) != 8) {
        PyErr_Format(PyExc_ValueError,
                     "a clock block must have 8 words, not %zd",
                     PySequence_Fast_GET_SIZE(seq));
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int i = 0; i < 8; i++) {
        unsigned long long w = PyLong_AsUnsignedLongLong(items[i]);
        if (w == (unsigned long long)-1 && PyErr_Occurred())
            goto done;
        out[i] = (uint64_t)w;
    }
    rc = 0;
done:
    Py_DECREF(seq);
    return rc;
}

/* fn(a, b, c) or fn(a, b, c, d) with c (and d) built from C integers. */
static PyObject *
call_ints(PyObject *fn, PyObject *a, PyObject *b, Py_ssize_t c, Py_ssize_t d,
          int nargs)
{
    PyObject *args[4] = {a, b, PyLong_FromSsize_t(c), NULL};
    if (args[2] == NULL)
        return NULL;
    if (nargs == 4 && (args[3] = PyLong_FromSsize_t(d)) == NULL) {
        Py_DECREF(args[2]);
        return NULL;
    }
    PyObject *res = PyObject_Vectorcall(fn, args, nargs, NULL);
    Py_DECREF(args[2]);
    Py_XDECREF(args[3]);
    return res;
}

typedef struct {
    Py_ssize_t parent;
    Py_ssize_t rec;      /* race record index, -1 before the first race */
    PyObject *id;        /* the id as a Python int (owned) */
    PyObject *digest;    /* the 16-byte digest (owned) */
} Vertex;

typedef struct {
    Py_ssize_t n;        /* slots per raced vertex */
    size_t rec_size;     /* bytes per race record */
    Py_ssize_t nv, vcap;
    Vertex *v;           /* by vertex id */
    /* race records: sums, rates, jump counts, child ids, block indices and
     * the pending slot, at the offsets of ``REC_*`` below */
    Py_ssize_t nr, rcap;
    char *recs;
    /* advance blocks, eight words each, one per (record, slot) that has
     * read one */
    Py_ssize_t nb, bcap;
    uint64_t *pool;
} Walk;

#define REC(W, r) ((W)->recs + (size_t)(r) * (W)->rec_size)
#define REC_S(W, p) ((double *)(p))
#define REC_RATE(W, p) ((double *)(p) + (W)->n)
#define REC_JUMPS(W, p) ((int64_t *)(p) + 2 * (W)->n)
#define REC_KID(W, p) ((int64_t *)(p) + 3 * (W)->n)
#define REC_BLK(W, p) ((int64_t *)(p) + 4 * (W)->n)
#define REC_PEND(W, p) ((int64_t *)(p) + 5 * (W)->n)
#define REC_WORDS(n) (5 * (n) + 1)

static void
walk_free(Walk *w)
{
    for (Py_ssize_t v = 0; v < w->nv; v++) {
        Py_DECREF(w->v[v].id);
        Py_DECREF(w->v[v].digest);
    }
    PyMem_Free(w->v);
    PyMem_Free(w->recs);
    PyMem_Free(w->pool);
}

/* Register the next vertex id with its parent and digest (a new
 * reference, stolen); returns the id or -1. */
static Py_ssize_t
add_vertex(Walk *w, Py_ssize_t parent, PyObject *digest)
{
    Py_ssize_t v = w->nv;
    PyObject *id = NULL;
    if (reserve((void **)&w->v, &w->vcap, v + 1, sizeof(Vertex)) < 0
        || (id = PyLong_FromSsize_t(v)) == NULL) {
        Py_DECREF(digest);
        return -1;
    }
    w->v[v] = (Vertex){parent, -1, id, digest};
    w->nv = v + 1;
    return v;
}

/* The k = 0 race at vertex ``v``: draw its weights and its k = 0 blocks in
 * order, race every slot's first clock (inf at a zero rate, ties to the
 * smaller slot), and write its record.  Returns the winning slot or -1. */
static Py_ssize_t
first_race(Walk *w, Py_ssize_t v, PyObject *w8, PyObject *sampler,
           PyObject *init_block)
{
    Py_ssize_t n = w->n;
    PyObject *dg = w->v[v].digest;
    if (reserve((void **)&w->recs, &w->rcap, w->nr + 1, w->rec_size) < 0)
        return -1;
    char *p = REC(w, w->nr);
    double *s = REC_S(w, p), *rate = REC_RATE(w, p);

    PyObject *res = PyObject_CallOneArg(sampler, dg);
    if (res == NULL)
        return -1;
    PyObject *seq = PySequence_Fast(res, "a weight vector must be a sequence");
    Py_DECREF(res);
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n - 1) {
        PyErr_Format(PyExc_ValueError,
                     "a weight vector must have %zd weights, not %zd",
                     n - 1, PySequence_Fast_GET_SIZE(seq));
        Py_DECREF(seq);
        return -1;
    }
    rate[0] = 1.0;
    for (Py_ssize_t i = 1; i < n; i++) {
        rate[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i - 1));
        if (rate[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);

    uint64_t words[8];
    for (Py_ssize_t m = 0; m < (n + 7) / 8; m++) {
        PyObject *blk = call_ints(init_block, dg, w8, m, 0, 3);
        if (blk == NULL)
            return -1;
        int rc = block_words(blk, words);
        Py_DECREF(blk);
        if (rc < 0)
            return -1;
        for (Py_ssize_t i = 8 * m; i < n && i < 8 * m + 8; i++) {
            double y = exponential(words[i & 7]);
            s[i] = i == 0 ? y : rate[i] != 0.0 ? y / rate[i] : INFINITY;
        }
    }
    Py_ssize_t j = 0;
    for (Py_ssize_t i = 1; i < n; i++)
        if (s[i] < s[j])
            j = i;
    int64_t *jumps = REC_JUMPS(w, p), *kid = REC_KID(w, p),
            *blk = REC_BLK(w, p);
    for (Py_ssize_t i = 0; i < n; i++) {
        jumps[i] = 0;
        kid[i] = -1;
        blk[i] = -1;
    }
    jumps[j] = 1;
    *REC_PEND(w, p) = j;
    w->v[v].rec = w->nr++;
    return j;
}

/* A later race at vertex ``v``: add the clock the last jump from here
 * uncovered (jump k + 1 along slot j reads lane k mod 8 of j's advance
 * block k div 8), then race the sums.  Returns the winning slot or -1. */
static Py_ssize_t
race(Walk *w, Py_ssize_t v, PyObject *w8, PyObject *adv_block)
{
    char *p = REC(w, w->v[v].rec);
    double *s = REC_S(w, p);
    int64_t *jumps = REC_JUMPS(w, p), *blk = REC_BLK(w, p);
    Py_ssize_t n = w->n, j = (Py_ssize_t)*REC_PEND(w, p);
    int64_t k = jumps[j] - 1;
    if (!(k & 7)) {
        if (blk[j] == -1) {
            if (reserve((void **)&w->pool, &w->bcap, 8 * (w->nb + 1),
                        sizeof(uint64_t)) < 0)
                return -1;
            blk[j] = w->nb++;
        }
        PyObject *res = call_ints(adv_block, w->v[v].digest, w8, j,
                                  (Py_ssize_t)(k >> 3), 4);
        if (res == NULL)
            return -1;
        int rc = block_words(res, w->pool + 8 * blk[j]);
        Py_DECREF(res);
        if (rc < 0)
            return -1;
    }
    s[j] += exponential(w->pool[8 * blk[j] + (k & 7)]) / REC_RATE(w, p)[j];
    j = 0;
    for (Py_ssize_t i = 1; i < n; i++)
        if (s[i] < s[j])
            j = i;
    jumps[j] += 1;
    *REC_PEND(w, p) = j;
    return j;
}

/* Discover the child through slot ``j`` of ``cur``, at level ``lvl``: hash
 * its digest and append it to the discovery lists par, dig, dep and dgs.
 * Returns its id or -1. */
static Py_ssize_t
discover(Walk *w, Py_ssize_t cur, Py_ssize_t j, Py_ssize_t lvl,
         PyObject *child_digest, PyObject *const *lists)
{
    PyObject *jo = PyLong_FromSsize_t(j);
    if (jo == NULL)
        return -1;
    PyObject *cargs[2] = {w->v[cur].digest, jo};
    PyObject *dg = PyObject_Vectorcall(child_digest, cargs, 2, NULL);
    PyObject *depth = dg ? PyLong_FromSsize_t(lvl) : NULL;
    int rc = depth == NULL
        || PyList_Append(lists[0], w->v[cur].id) < 0
        || PyList_Append(lists[1], jo) < 0
        || PyList_Append(lists[2], depth) < 0
        || PyList_Append(lists[3], dg) < 0;
    Py_DECREF(jo);
    Py_XDECREF(depth);
    if (rc) {
        Py_XDECREF(dg);
        return -1;
    }
    return add_vertex(w, cur, dg);
}

static PyObject *
engine_walk(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    if (nargs != 14) {
        PyErr_Format(PyExc_TypeError, "walk takes 14 arguments, not %zd",
                     nargs);
        return NULL;
    }
    PyObject *ids = args[0], *dgs = args[4], *w8 = args[9],
             *sampler = args[10], *init_block = args[11],
             *adv_block = args[12], *child_digest = args[13];
    for (int i = 0; i < 5; i++)
        if (!PyList_CheckExact(args[i])) {
            PyErr_SetString(PyExc_TypeError,
                            "walk: ids, par, dig, dep and dgs must be lists");
            return NULL;
        }
    /* n_slots, anchor_slot, limit and target */
    Py_ssize_t ints[4];
    for (int i = 0; i < 4; i++)
        if ((ints[i] = PyLong_AsSsize_t(args[5 + i])) == -1 && PyErr_Occurred())
            return NULL;
    Py_ssize_t n = ints[0], anchor_slot = ints[1], limit = ints[2],
               target = ints[3];
    /* Vertex 0 is the anchor and vertex 1, when there, nu, the anchor's
     * child through its one open slot; step 0 is at one of them. */
    Py_ssize_t nv0 = PyList_GET_SIZE(args[1]), cur = -1;
    if (PyList_GET_SIZE(ids)
        && (cur = PyLong_AsSsize_t(PyList_GET_ITEM(
                ids, PyList_GET_SIZE(ids) - 1))) == -1 && PyErr_Occurred())
        return NULL;
    if (n < 2 || anchor_slot < 1 || anchor_slot >= n || limit < 0
        || nv0 < 1 || nv0 > 2 || PyList_GET_SIZE(args[2]) != nv0
        || PyList_GET_SIZE(args[3]) != nv0 || PyList_GET_SIZE(dgs) != nv0
        || cur < 0 || cur >= nv0) {
        PyErr_SetString(PyExc_ValueError, "walk: not a run's set-up");
        return NULL;
    }
    Py_ssize_t lvl = PyLong_AsSsize_t(PyList_GET_ITEM(args[3], cur));
    if (lvl == -1 && PyErr_Occurred())
        return NULL;

    Walk w;
    memset(&w, 0, sizeof w);
    w.n = n;
    w.rec_size = REC_WORDS(n) * sizeof(double);
    PyObject *result = NULL;
    for (Py_ssize_t v = 0; v < nv0; v++) {
        PyObject *dg = PyList_GET_ITEM(dgs, v);
        Py_INCREF(dg);
        if (add_vertex(&w, v - 1, dg) < 0)
            goto done;
    }
    int64_t anchor_kid = nv0 > 1 ? 1 : -1;
    int reached = 0;

    for (Py_ssize_t t = 0; t < limit; t++) {
        if (t && !(t & 4095) && PyErr_CheckSignals() < 0)
            goto done;
        Py_ssize_t j;
        int64_t *kid;
        if (w.v[cur].rec >= 0) {
            j = race(&w, cur, w8, adv_block);
        }
        else if (cur) {
            j = first_race(&w, cur, w8, sampler, init_block);
        }
        else {
            /* the anchor: the walk leaves it toward nu, no race */
            j = anchor_slot;
        }
        if (j < 0)
            goto done;
        if (j == 0) {
            cur = w.v[cur].parent;
            lvl -= 1;
        }
        else {
            /* no callback moves a record: only a first race adds one */
            kid = cur ? REC_KID(&w, REC(&w, w.v[cur].rec)) + j : &anchor_kid;
            if (*kid == -1
                && (*kid = discover(&w, cur, j, lvl + 1, child_digest,
                                    args + 1)) < 0)
                goto done;
            cur = (Py_ssize_t)*kid;
            lvl += 1;
        }
        if (PyList_Append(ids, w.v[cur].id) < 0)
            goto done;
        if (lvl == target) {
            reached = 1;
            break;
        }
    }
    result = PyBool_FromLong(reached);
done:
    walk_free(&w);
    return result;
}

static PyMethodDef engine_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))engine_walk, METH_FASTCALL,
     "walk(ids, par, dig, dep, dgs, n_slots, anchor_slot, limit, target, "
     "w8, sampler, init_block, adv_block, child_digest) -> bool\n\n"
     "Run the step loop of clocks._python_loop; True when it stopped at "
     "the level target."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef engine_module = {
    PyModuleDef_HEAD_INIT, "_engine",
    "The walk engine's compiled step loop (see clocks._compiled_loop).", -1,
    engine_methods,
};

PyMODINIT_FUNC
PyInit__engine(void)
{
    return PyModule_Create(&engine_module);
}

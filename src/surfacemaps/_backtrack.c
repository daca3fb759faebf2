/* Backtracking kernel for the simplicial-map enumerator.
 *
 * search() takes exactly the arguments of the pure-Python reference,
 * surfacemaps.analysis._python_search, from one builder, _search_args, and
 * returns its result in its emission order; the test suite compares the two
 * output for output.  The tables arrive flat, so this knows no surfaces.  The
 * codomain is one apex table of 2*m*m ints: the two apexes of edge ab at
 * 2*(a*m + b), -1 where ab is not an edge.  It answers both checks: ab is
 * an edge when its first apex is set, and abc is a facet when c is an apex
 * of ab.  The tables are checked on entry, so a malformed one raises
 * ValueError instead of reading out of bounds.
 *
 * Plain C against the CPython API; build with `python setup.py build_ext
 * --inplace`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>

/* Version of the search() argument list, exported as INTERFACE.  Bump it
 * whenever those arguments change, together with KERNEL_INTERFACE in
 * analysis.py, which refuses an extension built for another version. */
#define KERNEL_INTERFACE 3

/* Let Ctrl-C interrupt a long search: poll for signals every 2**20 nodes. */
#define SIGNAL_POLL_MASK ((1UL << 20) - 1)

typedef struct {
    Py_ssize_t len;
    int *v;
} IntArray;

/* Copy a list or tuple of ints into a fresh C array (length 0 allowed). */
static int
int_array(PyObject *seq, const char *name, IntArray *arr)
{
    PyObject *fast = PySequence_Fast(seq, "");
    if (fast == NULL) {
        PyErr_Format(PyExc_ValueError, "%s must be a sequence of ints", name);
        return -1;
    }
    arr->len = PySequence_Fast_GET_SIZE(fast);
    arr->v = PyMem_Malloc((size_t)(arr->len + 1) * sizeof(int));
    if (arr->v == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < arr->len; i++) {
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (x == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (x < INT_MIN || x > INT_MAX) {
            Py_DECREF(fast);
            PyErr_Format(PyExc_ValueError, "%s[%zd] is out of range", name, i);
            return -1;
        }
        arr->v[i] = (int)x;
    }
    Py_DECREF(fast);
    return 0;
}

/* Offsets must be n+1 non-decreasing entries from 0 to len(pos); the
 * positions listed for depth t must lie in [0, t); tri entries come in pairs. */
static int
check_table(const IntArray *off, const IntArray *pos, int n, int stride, const char *name)
{
    if (off->len != (Py_ssize_t)n + 1 || off->v[0] != 0 || off->v[n] != pos->len) {
        PyErr_Format(PyExc_ValueError,
                     "%s_off must have n+1 entries running from 0 to len(%s_pos)", name, name);
        return -1;
    }
    for (int t = 0; t < n; t++) {
        if (off->v[t + 1] < off->v[t] || off->v[t + 1] % stride != 0) {
            PyErr_Format(PyExc_ValueError, "%s_off decreases or is misaligned at depth %d",
                         name, t);
            return -1;
        }
        for (int i = off->v[t]; i < off->v[t + 1]; i++) {
            if (pos->v[i] < 0 || pos->v[i] >= t) {
                PyErr_Format(PyExc_ValueError,
                             "%s_pos[%d] = %d is not an earlier depth than %d",
                             name, i, pos->v[i], t);
                return -1;
            }
        }
    }
    return 0;
}

typedef struct {
    int n, m;
    IntArray pair_off, pair_pos, tri_off, tri_pos, apex;
} Tables;

static int
admissible(const Tables *tb, const int *assign, int t, int c)
{
    size_t m = (size_t)tb->m;
    for (int i = tb->pair_off.v[t]; i < tb->pair_off.v[t + 1]; i++) {
        int a = assign[tb->pair_pos.v[i]];
        if (a != c && tb->apex.v[2 * (a * m + c)] < 0)
            return 0;
    }
    for (int i = tb->tri_off.v[t]; i < tb->tri_off.v[t + 1]; i += 2) {
        int a = assign[tb->tri_pos.v[i]], b = assign[tb->tri_pos.v[i + 1]];
        const int *ab = tb->apex.v + 2 * (a * m + b);
        if (a != b && a != c && b != c && ab[0] != c && ab[1] != c)
            return 0;
    }
    return 1;
}

static PyObject *
vector_tuple(const int *assign, int n)
{
    PyObject *tup = PyTuple_New(n);
    if (tup == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(assign[i]);
        if (x == NULL) {
            Py_DECREF(tup);
            return NULL;
        }
        PyTuple_SET_ITEM(tup, i, x);
    }
    return tup;
}

/* Depth-first search without recursion.  next[t] is the next candidate
 * image to try at depth t; on[t] says that assign[0..t) equals the start
 * prefix, which restricts depth t to candidates >= start[t].  Returns 0,
 * or -1 with an exception set. */
static int
run_search(const Tables *tb, long max_maps, const int *start, int *assign, int *next,
           unsigned char *on, PyObject *out, int *truncated)
{
    int n = tb->n, m = tb->m, t = 0;
    unsigned long nodes = 0;
    on[0] = start != NULL;
    next[0] = on[0] && n > 0 ? start[0] : 0;
    while (t >= 0) {
        if (t == n) {
            if (!on[n]) {  /* on[n]: exactly the start vector, emitted by the last run */
                if (max_maps >= 0 && PyList_GET_SIZE(out) >= max_maps) {
                    *truncated = 1;
                    return 0;
                }
                PyObject *tup = vector_tuple(assign, n);
                if (tup == NULL || PyList_Append(out, tup) < 0) {
                    Py_XDECREF(tup);
                    return -1;
                }
                Py_DECREF(tup);
            }
        }
        else {
            int c = next[t];
            while (c < m && !admissible(tb, assign, t, c))
                c++;
            if (c < m) {
                if ((++nodes & SIGNAL_POLL_MASK) == 0 && PyErr_CheckSignals() < 0)
                    return -1;
                assign[t] = c;
                next[t] = c + 1;
                on[t + 1] = on[t] && c == start[t];
                t++;
                if (t < n)
                    next[t] = on[t] ? start[t] : 0;
                continue;
            }
        }
        /* leaf done or depth exhausted: back up one level */
        t--;
    }
    return 0;
}

PyDoc_STRVAR(search_doc,
"search(n, m, pair_off, pair_pos, tri_off, tri_pos, apex, max_maps, start)\n\n"
"Run the search; takes exactly the arguments of analysis._python_search\n"
"and returns its result.  apex lists the two apexes of each codomain edge\n"
"ab at 2*(a*m + b), and -1 at both places when ab is not an edge.\n\n"
"Returns (vectors, truncated) where vectors is a list of int tuples in\n"
"lexicographic emission order and truncated is True when max_maps maps\n"
"were emitted with candidates remaining (max_maps < 0 means no budget).\n"
"start, when not None, makes the search emit only vectors strictly greater\n"
"than it.  Malformed tables raise ValueError.");

static PyObject *
search(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "m", "pair_off", "pair_pos", "tri_off", "tri_pos", "apex",
                             "max_maps", "start", NULL};
    Tables tb = {0};
    PyObject *pair_off, *pair_pos, *tri_off, *tri_pos, *apex, *start_obj, *out = NULL;
    int truncated = 0;
    long max_maps;
    IntArray start = {0, NULL};
    int *assign = NULL, *next = NULL;
    unsigned char *on = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOOOOOlO:search", kwlist, &tb.n, &tb.m,
                                     &pair_off, &pair_pos, &tri_off, &tri_pos, &apex, &max_maps,
                                     &start_obj))
        return NULL;
    if (tb.n < 0 || tb.m < 0 || tb.m > 2000000) {
        PyErr_SetString(PyExc_ValueError, "n and m must be non-negative and m at most 2000000");
        return NULL;
    }
    if (int_array(pair_off, "pair_off", &tb.pair_off) < 0
        || int_array(pair_pos, "pair_pos", &tb.pair_pos) < 0
        || int_array(tri_off, "tri_off", &tb.tri_off) < 0
        || int_array(tri_pos, "tri_pos", &tb.tri_pos) < 0
        || int_array(apex, "apex", &tb.apex) < 0
        || check_table(&tb.pair_off, &tb.pair_pos, tb.n, 1, "pair") < 0
        || check_table(&tb.tri_off, &tb.tri_pos, tb.n, 2, "tri") < 0)
        goto done;
    if (tb.apex.len != 2 * (Py_ssize_t)tb.m * tb.m) {
        PyErr_SetString(PyExc_ValueError, "apex must have 2*m*m entries");
        goto done;
    }
    if (start_obj != Py_None) {
        if (int_array(start_obj, "start", &start) < 0)
            goto done;
        if (start.len != tb.n) {
            PyErr_SetString(PyExc_ValueError, "start must have n entries");
            goto done;
        }
        for (int i = 0; i < tb.n; i++) {
            if (start.v[i] < 0 || start.v[i] >= tb.m) {
                PyErr_Format(PyExc_ValueError, "start[%d] = %d is not in [0, m)", i, start.v[i]);
                goto done;
            }
        }
    }
    out = PyList_New(0);
    if (out == NULL)
        goto done;
    assign = PyMem_Calloc((size_t)tb.n + 1, sizeof(int));
    next = PyMem_Calloc((size_t)tb.n + 1, sizeof(int));
    on = PyMem_Calloc((size_t)tb.n + 1, 1);
    if (assign == NULL || next == NULL || on == NULL) {
        PyErr_NoMemory();
        Py_CLEAR(out);
        goto done;
    }
    if (run_search(&tb, max_maps, start.v, assign, next, on, out, &truncated) < 0)
        Py_CLEAR(out);

done:
    PyMem_Free(tb.pair_off.v);
    PyMem_Free(tb.pair_pos.v);
    PyMem_Free(tb.tri_off.v);
    PyMem_Free(tb.tri_pos.v);
    PyMem_Free(tb.apex.v);
    PyMem_Free(start.v);
    PyMem_Free(assign);
    PyMem_Free(next);
    PyMem_Free(on);
    if (out == NULL)
        return NULL;
    return Py_BuildValue("(NO)", out, truncated ? Py_True : Py_False);
}

static PyMethodDef backtrack_methods[] = {
    {"search", (PyCFunction)(void (*)(void))search, METH_VARARGS | METH_KEYWORDS, search_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef backtrack_module = {
    PyModuleDef_HEAD_INIT,
    "surfacemaps._backtrack",
    "Compiled backtracking kernel for the simplicial-map enumerator.",
    -1,
    backtrack_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__backtrack(void)
{
    PyObject *module = PyModule_Create(&backtrack_module);
    if (module != NULL && PyModule_AddIntConstant(module, "INTERFACE", KERNEL_INTERFACE) < 0)
        Py_CLEAR(module);
    return module;
}

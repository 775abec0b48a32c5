/* Compiled twins of the two mod-p sweeps, quadric_sweep and z1_sweep.

Same API and counter semantics as _fpcore_py; see that module for the
documentation, and for why the isotropic-vector search has no twin here.
A sweep takes (p, b, gamma, limit) and derives n = len(b), m from
len(gamma) = m^2 and the norm form from the diagonal of gamma; it
raises ValueError for a b_i = 0 mod p.  Every kernel raises the ValueError
of the pure kernels unless p is an odd prime below 2^31.  Unlike the pure
kernels, which skip points that cannot pass the first test, these test
every canonical projective point in odometer order, so the agreement tests
check one walk against the other.

Sizes are bounded (dim C <= 8, n*n*dim C <= 576) so everything runs on
stack buffers.  Residues lie in [0, p) with p < 2^31, and a product of two
residues (of three when p < 2^21) is reduced before it meets another factor
or summand, so every intermediate value stays below 2^63.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAXC 72                 /* max flat coordinates m*(n-1)+1 */
#define MAXM 8                  /* max composition-algebra dimension */
#define MAXMAT 576              /* max n*n*m */
#define MAXP (1LL << 31)        /* p bound for products of two residues */
#define SMALLP (1ULL << 21)     /* p bound for products of three */

typedef unsigned long long u64;

static inline u64
addmod(u64 a, u64 b, u64 p) { return a + b >= p ? a + b - p : a + b; }

static inline u64
mulmod(u64 a, u64 b, u64 p) { return a * b % p; }

/* One division instead of two where the product of three fits. */
static inline u64
mul3mod(u64 a, u64 b, u64 c, u64 p)
{
    return p < SMALLP ? a * b * c % p : mulmod(mulmod(a, b, p), c, p);
}

/* *p = obj when obj is an odd prime below 2^31; otherwise the ValueError
   of the pure kernels (a TypeError when obj is no integer). */
static int
modulus(PyObject *obj, long long *p)
{
    int big = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &big);
    if (v == -1 && PyErr_Occurred())
        return -1;
    int prime = !big && v > 2 && v < MAXP && v % 2;
    for (long long d = 3; prime && d * d <= v; d += 2)
        prime = v % d != 0;
    if (!prime) {
        PyErr_SetString(PyExc_ValueError, "p must be an odd prime below 2^31");
        return -1;
    }
    *p = v;
    return 0;
}

/* out[i] = seq[i] % p for i < count, with Python's sign convention. */
static int
load(PyObject *seq, Py_ssize_t count, long long p, u64 *out)
{
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PySequence_GetItem(seq, i);
        int big = 0;
        long long v = item ? PyLong_AsLongLongAndOverflow(item, &big) : -1;
        if (big) {              /* beyond 64 bits: let Python reduce it */
            PyObject *mod = PyLong_FromLongLong(p);
            PyObject *r = mod ? PyNumber_Remainder(item, mod) : NULL;
            v = r ? PyLong_AsLongLong(r) : -1;
            Py_XDECREF(mod);
            Py_XDECREF(r);
        }
        Py_XDECREF(item);
        if (v == -1 && PyErr_Occurred())
            return -1;
        out[i] = (u64)(v % p < 0 ? v % p + p : v % p);
    }
    return 0;
}

/* The canonical points c of P^{N-1}(F_p) whose first nonzero coordinate,
   1, is c[lead], in odometer order on c[lead+1..N), with the value q of the
   form sum w[i] c[i]^2 at c, kept by finite differences: c[i] -> c[i] + 1
   adds diff[i] = w[i] (2 c[i] + 1) to q.  Both are periodic in c[i] with
   period p, so the wrap from p - 1 to 0 is the same update. */
typedef struct {
    int lead, N;
    u64 p, q;
    const u64 *w;
    u64 c[MAXC + MAXM], diff[MAXC];
} walk;

static void
walk_start(walk *W, int lead)
{
    W->lead = lead;
    for (int i = 0; i < W->N; i++) {
        W->c[i] = 0;
        W->diff[i] = W->w[i];
    }
    W->c[lead] = 1;
    W->q = W->w[lead];
}

/* Step to the next point; 0 once the trailing coordinates wrap to zero. */
static inline int
walk_next(walk *W)
{
    const u64 p = W->p;
    for (int i = W->N - 1; i > W->lead; i--) {
        W->q = addmod(W->q, W->diff[i], p);
        W->diff[i] = addmod(W->diff[i], addmod(W->w[i], W->w[i], p), p);
        if (++W->c[i] < p)
            return 1;
        W->c[i] = 0;
    }
    return 0;
}

static int
any_nonzero(const u64 *v, int len)
{
    for (int k = 0; k < len; k++)
        if (v[k])
            return 1;
    return 0;
}

/* The arguments of a sweep, reduced mod p, with n = len(b) and
   m^2 = len(gamma). */
typedef struct {
    u64 p;
    int n, m;
    long long limit;
    u64 b[MAXC + MAXM], gam[MAXM * MAXM];
} sweep;

static int
parse_sweep(PyObject *args, PyObject *kwds, const char *format, sweep *S,
            int quadric)
{
    static char *kwlist[] = {"p", "b", "gamma", "limit", NULL};
    long long p = 0;
    PyObject *pobj, *b, *gamma;
    S->limit = -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, format, kwlist, &pobj, &b,
                                     &gamma, &S->limit)
            || modulus(pobj, &p) < 0)
        return -1;
    Py_ssize_t n = PySequence_Size(b), g = PySequence_Size(gamma);
    if (n < 0 || g < 0)
        return -1;
    Py_ssize_t m = g == 1 ? 1 : g == 4 ? 2 : g == 16 ? 4 : g == 64 ? 8 : 0;
    if (!m) {
        PyErr_SetString(PyExc_ValueError, "len(gamma) must be 1, 4, 16 or 64");
        return -1;
    }
    if (n < 1 || m * (n - 1) + quadric > MAXC
            || (quadric && n * n * m > MAXMAT)) {
        PyErr_SetString(PyExc_ValueError,
                        "configuration too large for the compiled kernel");
        return -1;
    }
    S->p = p;
    S->n = (int)n;
    S->m = (int)m;
    if (load(b, n, p, S->b) < 0 || load(gamma, g, p, S->gam) < 0)
        return -1;
    for (int i = 0; i < S->n; i++)
        if (!S->b[i]) {
            PyErr_SetString(PyExc_ValueError,
                            "every b_i must be nonzero mod p");
            return -1;
        }
    return 0;
}

/* out = x * (conj_y ? conj(y) : y) for blocks of m coordinates, where
   e_s e_t = gam[s*m+t] e_{s^t} and conjugation negates coordinates 1..m-1. */
static void
cd_mul(const sweep *S, const u64 *x, const u64 *y, int conj_y, u64 *out)
{
    const u64 p = S->p;
    const int m = S->m;
    for (int k = 0; k < m; k++)
        out[k] = 0;
    for (int s = 0; s < m; s++) {
        if (!x[s])
            continue;
        for (int t = 0; t < m; t++) {
            u64 yt = y[t];
            if (!yt)
                continue;
            if (conj_y && t)
                yt = p - yt;
            u64 v = mul3mod(x[s], yt, S->gam[s * m + t], p);
            out[s ^ t] = addmod(out[s ^ t], v, p);
        }
    }
}

PyDoc_STRVAR(quadric_sweep_doc,
"quadric_sweep($module, p, b, gamma, limit=-1)\n--\n\n"
"Test every canonical point of P(C^{n-1} x k) over F_p below limit (all\n"
"when limit < 0) against the trace quadric and the rank-one map.  Returns\n"
"(scanned, on_quadric, base_points, zslice_points, roundtrip_checked,\n"
"roundtrip_fail, sym_fail, trace_fail, diag_fail).");

static PyObject *
quadric_sweep(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwds)
{
    sweep S;
    if (parse_sweep(args, kwds, "OOO|L:quadric_sweep", &S, 1) < 0)
        return NULL;
    const u64 p = S.p;
    const int n = S.n, m = S.m, N = m * (n - 1) + 1;
    u64 w[MAXC], mat[MAXMAT], tmp[MAXM];
    long long scanned = 0, on_quadric = 0, base_points = 0, zslice_points = 0;
    long long roundtrip_checked = 0, roundtrip_fail = 0;
    long long sym_fail = 0, trace_fail = 0, diag_fail = 0;
    /* sum_i b_i N(c_i) + b_n c^2, where N(e_0) = gam[0] and, from
       e_t conj(e_t) = -e_t e_t, N(e_t) = -gam[t*m+t] */
    for (int i = 0; i < n - 1; i++)
        for (int t = 0; t < m; t++) {
            u64 g = S.gam[t * m + t];
            w[i * m + t] = mulmod(S.b[i], t && g ? p - g : g, p);
        }
    w[N - 1] = S.b[n - 1];
    /* c is also the n blocks c_i: the scalar c[N-1] opens block n-1, whose
       other coordinates, past the walk's, stay 0 */
    walk W = {.N = N, .p = p, .w = w};
    const u64 *c = W.c;
    for (int lead = 0; lead < N; lead++) {
        walk_start(&W, lead);
        do {
            if (S.limit >= 0 && scanned >= S.limit)
                goto done;
            scanned++;
            if (W.q != 0)
                continue;
            on_quadric++;
            /* mat[i][j] = c_i conj(c_j) b_j */
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++) {
                    u64 *e = mat + (i * n + j) * m;
                    cd_mul(&S, c + i * m, c + j * m, 1, tmp);
                    for (int k = 0; k < m; k++)
                        e[k] = mulmod(tmp[k], S.b[j], p);
                }
            /* diagonal entries scalar; trace equals the quadric value (0) */
            u64 tr = 0;
            for (int i = 0; i < n; i++) {
                const u64 *e = mat + (i * n + i) * m;
                tr += e[0];
                diag_fail += any_nonzero(e + 1, m - 1);
            }
            trace_fail += tr % p != 0;
            /* sigma_b symmetry: b_i mat[i][j] = b_j conj(mat[j][i]) */
            int ok = 1;
            for (int i = 0; ok && i < n; i++)
                for (int j = i + 1; ok && j < n; j++) {
                    const u64 *eij = mat + (i * n + j) * m;
                    const u64 *eji = mat + (j * n + i) * m;
                    for (int k = 0; ok && k < m; k++) {
                        u64 v = k && eji[k] ? p - eji[k] : eji[k];
                        ok = mulmod(S.b[i], eij[k], p) == mulmod(S.b[j], v, p);
                    }
                }
            sym_fail += !ok;
            /* a zero matrix is a base point, with nothing more to test: the
               b_j are units, so every c_i conj(c_j) = 0, and on the quadric
               the first n-1 diagonal entries sum to -b_n c_N^2, so c_N = 0 */
            if (!any_nonzero(mat, n * n * m)) {
                base_points++;
                continue;
            }
            /* column n of the matrix, c_i conj(c_N) b_n, is the inverse map's
               slice; c_N = 0 makes it vanish: the inverse base locus */
            if (c[N - 1] == 0) {
                zslice_points++;
                continue;
            }
            roundtrip_checked++;
            u64 lam = mulmod(S.b[n - 1], c[N - 1], p);
            int good = 1;
            for (int i = 0; good && i < n; i++) {
                const u64 *e = mat + (i * n + n - 1) * m;
                for (int k = 0; good && k < m; k++)
                    good = e[k] == mulmod(lam, c[i * m + k], p);
            }
            roundtrip_fail += !good;
        } while (walk_next(&W));
    }
done:
    return Py_BuildValue("(LLLLLLLLL)", scanned, on_quadric, base_points,
                         zslice_points, roundtrip_checked, roundtrip_fail,
                         sym_fail, trace_fail, diag_fail);
}

PyDoc_STRVAR(z1_sweep_doc,
"z1_sweep($module, p, b, gamma, limit=-1)\n--\n\n"
"Test every canonical point of P(C^{n-1}) over F_p below limit (all when\n"
"limit < 0) against two membership predicates for the base locus.\n"
"Returns (scanned, z1_points, equiv_fail).");

static PyObject *
z1_sweep(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwds)
{
    sweep S;
    if (parse_sweep(args, kwds, "OOO|L:z1_sweep", &S, 0) < 0)
        return NULL;
    const u64 p = S.p;
    const int m = S.m, nn = S.n - 1, N = m * nn;
    static const u64 no_form[MAXC];
    u64 tmp[MAXM], tmp2[MAXM];
    long long scanned = 0, z1_points = 0, equiv_fail = 0;
    walk W = {.N = N, .p = p, .w = no_form};
    const u64 *c = W.c;
    for (int lead = 0; lead < N; lead++) {
        walk_start(&W, lead);
        do {
            if (S.limit >= 0 && scanned >= S.limit)
                goto done;
            scanned++;
            /* all products c_i conj(c_j) = 0?  c_j conj(c_i) is the
               conjugate of c_i conj(c_j), so the pairs i <= j decide it */
            int s1 = 1;
            for (int i = 0; s1 && i < nn; i++)
                for (int j = i; s1 && j < nn; j++) {
                    cd_mul(&S, c + i * m, c + j * m, 1, tmp);
                    s1 = !any_nonzero(tmp, m);
                }
            if (!s1)
                continue;
            z1_points++;
            /* the corner entry of x(c)^2, b_n^{-1} times
               sum_k b_k conj(c_k) c_k, must vanish on the locus */
            u64 corner[MAXM] = {0};
            for (int i = 0; i < nn; i++) {
                const u64 *ci = c + i * m;
                for (int t = 0; t < m; t++)
                    tmp2[t] = t && ci[t] ? p - ci[t] : ci[t];
                cd_mul(&S, tmp2, ci, 0, tmp);
                for (int t = 0; t < m; t++)
                    corner[t] = addmod(corner[t], mulmod(S.b[i], tmp[t], p), p);
            }
            equiv_fail += any_nonzero(corner, m);
        } while (walk_next(&W));
    }
done:
    return Py_BuildValue("(LLL)", scanned, z1_points, equiv_fail);
}

static PyMethodDef methods[] = {
    {"quadric_sweep", (PyCFunction)(void (*)(void))quadric_sweep,
     METH_VARARGS | METH_KEYWORDS, quadric_sweep_doc},
    {"z1_sweep", (PyCFunction)(void (*)(void))z1_sweep,
     METH_VARARGS | METH_KEYWORDS, z1_sweep_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fpcore",
    "Compiled mod-p sweeps; see jordanquad._fpcore_py for the semantics.",
    -1, methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__fpcore(void) { return PyModule_Create(&module); }

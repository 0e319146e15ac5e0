/* Native hot loops for the repro package (built via cffi API mode).
 *
 * Every kernel here replicates a pure-numpy loop *bit for bit*: the CSR
 * adjacencies, labels and charged operation counts must be byte-identical to
 * the numpy tier, which is what the parity test matrix asserts.  Three
 * details matter everywhere:
 *
 *   - numpy's ``einsum("ij,ij->i", d, d)`` accumulates a 3-wide row with a
 *     2-way pairwise unroll: (x*x + z*z) + y*y.  All squared distances below
 *     use exactly that association so the <= r2 comparison agrees with the
 *     numpy kernels on every borderline candidate.  2-wide rows are x*x + y*y.
 *   - CSR rows are emitted in query order with ascending indices (the
 *     canonical form of repro.adjacency), so per-row output is sorted before
 *     returning whenever the discovery order is not already ascending.
 *   - queries are independent: each writes only its own ``row_counts[i]``
 *     entry and its own ``indptr``-delimited slice of ``indices``, and the
 *     shared totals are exact integer reductions.  The OpenMP fan-out over
 *     queries below is therefore byte-identical to the serial sweep at any
 *     thread count — per-thread CSR fragments are the disjoint row slices
 *     themselves, already in query order.
 *
 * Kernels run in two passes (count, then fill into a caller-cumsum'd indptr)
 * so that all allocation stays on the numpy side; a NULL ``indptr`` selects
 * the counting pass.  The grid and BVH kernels cap each row's writes at its
 * indptr slice, so a caller that already holds the row counts runs the fill
 * pass alone.  When the compiler lacks -fopenmp the pragmas vanish
 * and every kernel degrades to the identical serial loop (the build layer
 * also retries without the flag, so a serial-C tier always exists).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* OpenMP introspection for the dispatch layer: the worker count an
 * unrestricted parallel region would use, or 0 for a serial build. */
int repro_openmp_max_threads(void)
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 0;
#endif
}

/* numpy einsum's pairwise association for a 3-component row. */
static inline double dist2_3(const double *q, const double *p)
{
    const double dx = q[0] - p[0];
    const double dy = q[1] - p[1];
    const double dz = q[2] - p[2];
    return (dx * dx + dz * dz) + dy * dy;
}

static int cmp_i64(const void *pa, const void *pb)
{
    const int64_t a = *(const int64_t *)pa;
    const int64_t b = *(const int64_t *)pb;
    return (a > b) - (a < b);
}

/* ---------------------------------------------------------------------- */
/* Uniform-grid stencil gather (neighbors/grid.py + GridNeighborBackend).  */
/*                                                                         */
/* The candidate coordinates arrive in SoA layout (cxs/cys/czs, 32-byte    */
/* aligned, already gathered into cell order), so the inner distance loop  */
/* streams three contiguous arrays instead of chasing ``order`` through    */
/* an AoS points array; ``order`` is only read to emit the candidate id.   */
/*                                                                         */
/* Fill mode writes at most indptr[i+1] - indptr[i] ids per row, as        */
/* repro_bvh_sphere does, so an indptr seeded from counts the caller       */
/* already holds can never write out of bounds.                            */
/* ---------------------------------------------------------------------- */

static int64_t cell_lookup(const int64_t *cell_table, int64_t ncells, int64_t nid)
{
    int64_t lo = 0, hi = ncells;
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (cell_table[mid] < nid)
            lo = mid + 1;
        else
            hi = mid;
    }
    return (lo < ncells && cell_table[lo] == nid) ? lo : -1;
}

void repro_grid_scan(
    const double *qpts, int64_t nq,
    const double *cxs, const double *cys, const double *czs,
    const int64_t *order,
    const int64_t *cell_table, const int64_t *cell_indptr, int64_t ncells,
    const double *origin, double cell_size, const int64_t *dims,
    double r2, int self_query, int nthreads,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices,
    int64_t *candidates_out)
{
    int64_t candidates = 0;
    if (nthreads < 1)
        nthreads = 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nthreads) \
    if (nthreads > 1) reduction(+ : candidates)
#endif
    for (int64_t i = 0; i < nq; ++i) {
        const double *q = qpts + 3 * i;
        int64_t c[3];
        for (int k = 0; k < 3; ++k) {
            /* floor + int64 cast + clip, matching UniformGrid._cell_coords */
            int64_t ck = (int64_t)floor((q[k] - origin[k]) / cell_size);
            if (ck < 0)
                ck = 0;
            if (ck > dims[k] - 1)
                ck = dims[k] - 1;
            c[k] = ck;
        }
        int64_t nhits = 0;
        const int64_t base = indptr ? indptr[i] : 0;
        const int64_t cap = indptr ? indptr[i + 1] - base : 0;
        const double qx = q[0], qy = q[1], qz = q[2];
        for (int64_t ox = -1; ox <= 1; ++ox) {
            const int64_t x = c[0] + ox;
            if (x < 0 || x >= dims[0])
                continue;
            for (int64_t oy = -1; oy <= 1; ++oy) {
                const int64_t y = c[1] + oy;
                if (y < 0 || y >= dims[1])
                    continue;
                for (int64_t oz = -1; oz <= 1; ++oz) {
                    const int64_t z = c[2] + oz;
                    if (z < 0 || z >= dims[2])
                        continue;
                    const int64_t nid = (x * dims[1] + y) * dims[2] + z;
                    const int64_t pos = cell_lookup(cell_table, ncells, nid);
                    if (pos < 0)
                        continue;
                    const int64_t s = cell_indptr[pos];
                    const int64_t e = cell_indptr[pos + 1];
                    candidates += e - s;
                    for (int64_t j = s; j < e; ++j) {
                        const double dx = qx - cxs[j];
                        const double dy = qy - cys[j];
                        const double dz = qz - czs[j];
                        if ((dx * dx + dz * dz) + dy * dy <= r2) {
                            const int64_t cand = order[j];
                            if (self_query && cand == i)
                                continue;
                            if (indices && nhits < cap)
                                indices[base + nhits] = cand;
                            ++nhits;
                        }
                    }
                }
            }
        }
        if (row_counts)
            row_counts[i] = nhits;
        const int64_t written = nhits < cap ? nhits : cap;
        if (indices && written > 1)
            qsort(indices + base, (size_t)written, sizeof(int64_t), cmp_i64);
    }
    if (candidates_out)
        *candidates_out = candidates;
}

/* ---------------------------------------------------------------------- */
/* Blocked brute force (neighbors/brute.py).                               */
/*                                                                         */
/* The numpy path's BLAS prescreen admits every exact hit (the margin only  */
/* ever adds candidates), so the final set equals the direct componentwise */
/* test — which is what this kernel computes.  ``data_t`` is the data in   */
/* SoA layout (d rows of nd doubles) so the inner loop vectorises.         */
/* ---------------------------------------------------------------------- */

void repro_brute_block(
    const double *queries, int64_t nqb, int d,
    const double *data_t, int64_t nd,
    double r2, int nthreads,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices)
{
    const double *xs = data_t;
    const double *ys = data_t + nd;
    const double *zs = (d == 3) ? data_t + 2 * nd : NULL;
    if (nthreads < 1)
        nthreads = 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nthreads) \
    if (nthreads > 1)
#endif
    for (int64_t i = 0; i < nqb; ++i) {
        const double *q = queries + (int64_t)d * i;
        int64_t nhits = 0;
        const int64_t base = indptr ? indptr[i] : 0;
        if (d == 3) {
            const double qx = q[0], qy = q[1], qz = q[2];
            for (int64_t j = 0; j < nd; ++j) {
                const double dx = qx - xs[j];
                const double dy = qy - ys[j];
                const double dz = qz - zs[j];
                if ((dx * dx + dz * dz) + dy * dy <= r2) {
                    if (indices)
                        indices[base + nhits] = j;
                    ++nhits;
                }
            }
        } else {
            const double qx = q[0], qy = q[1];
            for (int64_t j = 0; j < nd; ++j) {
                const double dx = qx - xs[j];
                const double dy = qy - ys[j];
                if (dx * dx + dy * dy <= r2) {
                    if (indices)
                        indices[base + nhits] = j;
                    ++nhits;
                }
            }
        }
        if (row_counts)
            row_counts[i] = nhits;
        /* data indices are discovered ascending: already canonical. */
    }
}

/* ---------------------------------------------------------------------- */
/* BVH sphere query (bvh/traversal.py + the sphere Intersection programs). */
/*                                                                         */
/* Depth-first traversal with an explicit stack.  The numpy kernel is a    */
/* level-synchronous BFS, but the per-query visit multiset is identical:   */
/* the root always enters the frontier, and both children of every         */
/* containment-passing internal node enter it — exactly the nodes this DFS */
/* pops.  node/leaf/candidate/confirmed counts and the max 1-based depth   */
/* therefore match the numpy TraversalStats field by field.                */
/*                                                                         */
/* ``stack`` is caller-provided scratch of nthreads * 2*(num_nodes+2)      */
/* int64 — one slab per worker (each node is pushed at most once per       */
/* query, so num_nodes+2 entries per slab suffice).                        */
/*                                                                         */
/* Fill mode writes at most indptr[qi+1] - indptr[qi] ids per row, so an   */
/* indptr seeded from counts the caller already holds can never write out  */
/* of bounds; row_counts still reports every hit, for the caller to check. */
/* ---------------------------------------------------------------------- */

void repro_bvh_sphere(
    const double *qpts, int64_t nq,
    const double *confirm_pts,
    const double *node_lo, const double *node_hi,
    const int64_t *children, const uint8_t *leaf_mask,
    const int64_t *prim_start, const int64_t *prim_count,
    const int64_t *prim_indices, int64_t num_nodes,
    const double *centers, double r2,
    int exclude_self, const int64_t *self_map, const uint8_t *active,
    int nthreads, int64_t *stack,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices,
    int64_t *stats_out)
{
    const int64_t stride = 2 * (num_nodes + 2);
    int64_t nv = 0, lv = 0, cand = 0, conf = 0, maxlvl = 0;
    (void)stride; /* only read inside the OpenMP region */
    if (nthreads < 1)
        nthreads = 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nthreads) \
    if (nthreads > 1) reduction(+ : nv, lv, cand, conf) reduction(max : maxlvl)
#endif
    for (int64_t qi = 0; qi < nq; ++qi) {
#ifdef _OPENMP
        int64_t *stk = stack + (int64_t)omp_get_thread_num() * stride;
#else
        int64_t *stk = stack;
#endif
        const double *qp = qpts + 3 * qi;
        const double *cp = confirm_pts + 3 * qi;
        const int64_t self_prim =
            exclude_self ? qi : (self_map ? self_map[qi] : -1);
        int64_t nhits = 0;
        const int64_t base = indptr ? indptr[qi] : 0;
        const int64_t cap = indptr ? indptr[qi + 1] - base : 0;
        int64_t top = 1;
        stk[0] = 0; /* root */
        stk[1] = 1; /* 1-based depth */
        while (top > 0) {
            --top;
            const int64_t node = stk[2 * top];
            const int64_t depth = stk[2 * top + 1];
            ++nv;
            if (depth > maxlvl)
                maxlvl = depth;
            const double *lo = node_lo + 3 * node;
            const double *hi = node_hi + 3 * node;
            if (qp[0] < lo[0] || qp[0] > hi[0] || qp[1] < lo[1] ||
                qp[1] > hi[1] || qp[2] < lo[2] || qp[2] > hi[2])
                continue;
            if (leaf_mask[node]) {
                ++lv;
                const int64_t s = prim_start[node];
                const int64_t cnt = prim_count[node];
                cand += cnt;
                for (int64_t t = 0; t < cnt; ++t) {
                    const int64_t prim = prim_indices[s + t];
                    if (active && !active[prim])
                        continue;
                    if (prim == self_prim)
                        continue;
                    if (dist2_3(cp, centers + 3 * prim) <= r2) {
                        if (indices && nhits < cap)
                            indices[base + nhits] = prim;
                        ++nhits;
                    }
                }
            } else {
                stk[2 * top] = children[2 * node];
                stk[2 * top + 1] = depth + 1;
                stk[2 * top + 2] = children[2 * node + 1];
                stk[2 * top + 3] = depth + 1;
                top += 2;
            }
        }
        conf += nhits;
        if (row_counts)
            row_counts[qi] = nhits;
        const int64_t written = nhits < cap ? nhits : cap;
        if (indices && written > 1)
            qsort(indices + base, (size_t)written, sizeof(int64_t), cmp_i64);
    }
    if (stats_out) {
        stats_out[0] = nv;
        stats_out[1] = lv;
        stats_out[2] = cand;
        stats_out[3] = conf;
        stats_out[4] = maxlvl;
    }
}

/* ---------------------------------------------------------------------- */
/* Deduped candidate-pair confirm (neighbors/approx.py, the LSH backend).  */
/*                                                                         */
/* The LSH sweep dedupes its probe candidates into a composite key sorted  */
/* by (query, candidate), so ``cands`` is ascending within each row and    */
/* ``pair_indptr`` delimits every row's pair range — emitting hits in pair */
/* order is already the canonical CSR form, no per-row sort needed.  The   */
/* distance test replicates the numpy confirm (einsum association, hits    */
/* filtered by the q != cand self rule) exactly.                           */
/* ---------------------------------------------------------------------- */

void repro_confirm_pairs(
    const double *qblock, int64_t nqb, int d, int64_t qbase,
    const double *points,
    const int64_t *cands, const int64_t *pair_indptr,
    double r2, int self_query, int nthreads,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices)
{
    if (nthreads < 1)
        nthreads = 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nthreads) \
    if (nthreads > 1)
#endif
    for (int64_t i = 0; i < nqb; ++i) {
        const double *q = qblock + (int64_t)d * i;
        const int64_t self_id = qbase + i;
        int64_t nhits = 0;
        const int64_t base = indptr ? indptr[i] : 0;
        for (int64_t k = pair_indptr[i]; k < pair_indptr[i + 1]; ++k) {
            const int64_t c = cands[k];
            double d2;
            if (self_query && c == self_id)
                continue;
            if (d == 3) {
                d2 = dist2_3(q, points + 3 * c);
            } else {
                const double dx = q[0] - points[2 * c];
                const double dy = q[1] - points[2 * c + 1];
                d2 = dx * dx + dy * dy;
            }
            if (d2 <= r2) {
                if (indices)
                    indices[base + nhits] = c;
                ++nhits;
            }
        }
        if (row_counts)
            row_counts[i] = nhits;
    }
}

/* ---------------------------------------------------------------------- */
/* Batched union-find hook-and-jump rounds (dbscan/disjoint_set.py).       */
/*                                                                         */
/* Replicates ParallelDisjointSet.union_edges exactly: per round, freeze   */
/* the roots of every edge endpoint against the current parent array, then */
/* min-hook the larger root of each root-differing edge onto the smaller   */
/* (order-independent min accumulation), count those edges as hooks, and   */
/* fully compress.  Returns the total hook count, or -1 on allocation      */
/* failure (the caller falls back to the numpy rounds).  Deliberately      */
/* serial: the rounds are a sequential fixpoint over a shared parent       */
/* array, and the loop is a negligible slice of the measured profile.      */
/* ---------------------------------------------------------------------- */

int64_t repro_uf_union_edges(
    int64_t *parent, int64_t n,
    const int64_t *a, const int64_t *b, int64_t ne)
{
    int64_t *ra = (int64_t *)malloc((size_t)ne * sizeof(int64_t));
    int64_t *rb = (int64_t *)malloc((size_t)ne * sizeof(int64_t));
    if (!ra || !rb) {
        free(ra);
        free(rb);
        return -1;
    }
    int64_t hooks = 0;
    for (;;) {
        for (int64_t i = 0; i < ne; ++i) {
            int64_t r = a[i];
            while (parent[r] != r)
                r = parent[r];
            ra[i] = r;
            r = b[i];
            while (parent[r] != r)
                r = parent[r];
            rb[i] = r;
        }
        int64_t ndiff = 0;
        for (int64_t i = 0; i < ne; ++i) {
            if (ra[i] == rb[i])
                continue;
            const int64_t hi = ra[i] > rb[i] ? ra[i] : rb[i];
            const int64_t lo = ra[i] > rb[i] ? rb[i] : ra[i];
            if (lo < parent[hi])
                parent[hi] = lo;
            ++ndiff;
        }
        if (ndiff == 0)
            break;
        hooks += ndiff;
        for (int64_t i = 0; i < n; ++i) {
            int64_t r = i;
            while (parent[r] != r)
                r = parent[r];
            parent[i] = r;
        }
    }
    free(ra);
    free(rb);
    return hooks;
}

/* Pole-of-inaccessibility search and signed distance for geom/kernel.py.
 *
 * Mirrors urschrei/polylabel-rs (lib.rs): edges grouped into blocks of
 * BLOCK_SIZE with one bounding box each (lib.rs:90-161), signed distance
 * with block skipping (lib.rs:163-233), the seed grid (lib.rs:257-287),
 * subdivision into 4 children (lib.rs:289-301) and the best-first loop
 * (lib.rs:380-394).  kernel.py does the per-row prep (screens, area,
 * centroid, bbox, guards) and hands each live polygon's seed parameters in.
 *
 * Every floating-point expression keeps the operation order that
 * tests/data/kernel_golden.npz was computed with, and the file is built
 * with -ffp-contract=off (no fused multiply-add), so results match it bit
 * for bit.  Block skipping never drops the edge that holds the minimum
 * distance nor an edge that flips ray-cast parity: both skip tests carry a
 * margin that covers the rounding of the per-edge arithmetic.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define BLOCK_SIZE 32
#define MIN(a, b) ((b) < (a) ? (b) : (a))
#define MAX(a, b) ((b) > (a) ? (b) : (a))
static const double SQRT2 = 1.4142135623730951;

/* one edge a -> b, with the terms the distance and parity tests reuse */
typedef struct {
    double ax, ay, dx, dy, d2, by;
} edge_t;

/* BLOCK_SIZE consecutive edges of one ring; xr is xmax widened by the
 * rounding of a ray-crossing x, so a point right of xr sees no flip */
typedef struct {
    double xmin, xmax, ymin, ymax, xr;
    int64_t e0, n;
} block_t;

typedef struct {
    edge_t *e;
    block_t *b;
    double *lb; /* per block: squared distance from the point to its box */
    int64_t nb, ecap, bcap, lbcap;
    double x0, x1, y0, y1; /* bbox of every edge endpoint */
} prep_t;

typedef struct {
    double maxd, cx, cy, h, d;
    int64_t seq;
} cell_t;

typedef struct {
    cell_t *c;
    int64_t n, cap, seq;
} heap_t;

static void prep_free(prep_t *p)
{
    free(p->e);
    free(p->b);
    free(p->lb);
}

/* grow *buf to hold n items of size sz; buffers are reused across polygons */
static int grow(void **buf, int64_t *cap, int64_t n, size_t sz)
{
    if (n <= *cap)
        return 0;
    void *q = realloc(*buf, (size_t)n * sz);
    if (!q)
        return -1;
    *buf = q;
    *cap = n;
    return 0;
}

/* Edges of rings [r0, r1): a ring of n >= 2 vertices has n cyclic edges,
 * shorter rings have none; blocks never span rings.  Reuses p's buffers. */
static int prep_build(prep_t *p, const double *xy, const int64_t *ring_off,
                      int64_t r0, int64_t r1)
{
    int64_t ne = 0, nb = 0;
    for (int64_t r = r0; r < r1; r++) {
        int64_t n = ring_off[r + 1] - ring_off[r];
        if (n >= 2) {
            ne += n;
            nb += (n + BLOCK_SIZE - 1) / BLOCK_SIZE;
        }
    }
    p->nb = nb;
    if (grow((void **)&p->e, &p->ecap, ne, sizeof(edge_t)) ||
        grow((void **)&p->b, &p->bcap, nb, sizeof(block_t)) ||
        grow((void **)&p->lb, &p->lbcap, nb, sizeof(double)))
        return -1;
    p->x0 = p->y0 = INFINITY;
    p->x1 = p->y1 = -INFINITY;
    int64_t k = 0, bi = 0;
    for (int64_t r = r0; r < r1; r++) {
        int64_t s = ring_off[r], n = ring_off[r + 1] - s;
        if (n < 2)
            continue;
        for (int64_t i = 0; i < n; i++) {
            const double *a = xy + 2 * (s + i);
            const double *b = xy + 2 * (s + (i + 1 == n ? 0 : i + 1));
            edge_t *e = p->e + k + i;
            e->ax = a[0];
            e->ay = a[1];
            e->by = b[1];
            e->dx = b[0] - a[0];
            e->dy = b[1] - a[1];
            e->d2 = e->dx * e->dx + e->dy * e->dy;
        }
        for (int64_t i0 = 0; i0 < n; i0 += BLOCK_SIZE) {
            block_t *bl = p->b + bi++;
            bl->e0 = k + i0;
            bl->n = n - i0 < BLOCK_SIZE ? n - i0 : BLOCK_SIZE;
            bl->xmin = bl->ymin = INFINITY;
            bl->xmax = bl->ymax = -INFINITY;
            for (int64_t i = i0; i < i0 + bl->n + 1; i++) {
                /* endpoints of the block's edges: vertices i0 .. i0+n */
                const double *v = xy + 2 * (s + (i >= n ? i - n : i));
                bl->xmin = MIN(bl->xmin, v[0]);
                bl->xmax = MAX(bl->xmax, v[0]);
                bl->ymin = MIN(bl->ymin, v[1]);
                bl->ymax = MAX(bl->ymax, v[1]);
            }
            double xm = MAX(fabs(bl->xmin), fabs(bl->xmax));
            bl->xr = bl->xmax + 16 * DBL_EPSILON * xm + 16 * DBL_TRUE_MIN;
            p->x0 = MIN(p->x0, bl->xmin);
            p->x1 = MAX(p->x1, bl->xmax);
            p->y0 = MIN(p->y0, bl->ymin);
            p->y1 = MAX(p->y1, bl->ymax);
        }
        k += n;
    }
    return 0;
}

/* squared point-to-segment distance; the op order is part of the result
 * (tests/data/kernel_golden.npz), so keep it */
static inline double edge_dist2(const edge_t *e, double px, double py)
{
    double wx = px - e->ax, wy = py - e->ay;
    double t = 0.0;
    if (e->d2 > 0.0)
        t = (wx * e->dx + wy * e->dy) / e->d2;
    if (t < 0.0)
        t = 0.0;
    else if (t > 1.0)
        t = 1.0;
    double ex = wx - t * e->dx, ey = wy - t * e->dy;
    return ex * ex + ey * ey;
}

/* even-odd ray cast toward +x (lib.rs:218-222) */
static inline int edge_flips(const edge_t *e, double px, double py)
{
    if ((e->ay > py) == (e->by > py))
        return 0;
    return px < (e->dx * (py - e->ay)) / e->dy + e->ax;
}

static int block_flips(const prep_t *p, const block_t *b, double px, double py)
{
    const edge_t *e = p->e + b->e0;
    int flips = 0;
    for (int64_t i = 0; i < b->n; i++)
        flips ^= edge_flips(e + i, px, py);
    return flips;
}

static double block_min2(const prep_t *p, const block_t *b, double px, double py,
                         double min2)
{
    const edge_t *e = p->e + b->e0;
    for (int64_t i = 0; i < b->n; i++) {
        double v = edge_dist2(e + i, px, py);
        if (v < min2 || v != v) /* NaN sticks, as np.minimum */
            min2 = v;
    }
    return min2;
}

/* Signed distance from (px, py) to the polygon outline: positive inside. */
static double signed_distance(const prep_t *p, double px, double py)
{
    if (p->nb == 0)
        return -INFINITY;
    /* parity over the blocks the ray can cross; box bounds for the rest */
    int64_t seed = 0;
    int flips = 0;
    for (int64_t i = 0; i < p->nb; i++) {
        const block_t *b = p->b + i;
        double ddx = MAX(b->xmin - px, 0.0) + MAX(px - b->xmax, 0.0);
        double ddy = MAX(b->ymin - py, 0.0) + MAX(py - b->ymax, 0.0);
        p->lb[i] = ddx * ddx + ddy * ddy;
        if (p->lb[i] < p->lb[seed])
            seed = i;
        if (!(py < b->ymin || py >= b->ymax || px > b->xr))
            flips ^= block_flips(p, b, px, py);
    }
    /* the nearest box first, then every box that may hold a closer edge.
     * Computed edge distances can undercut the box bound by a few ulps of
     * the coordinates' distance from the point, so a box is skipped only
     * when it lies beyond the current minimum plus that rounding */
    double min2 = block_min2(p, p->b + seed, px, py, INFINITY);
    double s = MAX(MAX(fabs(px - p->x0), fabs(px - p->x1)),
                   MAX(fabs(py - p->y0), fabs(py - p->y1)));
    double lim = INFINITY, lim_of = NAN;
    for (int64_t i = 0; i < p->nb; i++) {
        if (min2 != lim_of) {
            double r = sqrt(min2) + 16 * DBL_EPSILON * s;
            lim = r * r * (1.0 + 8 * DBL_EPSILON);
            if (!(lim >= 0x1p-1000))
                lim = INFINITY;
            lim_of = min2;
        }
        if (i != seed && !(p->lb[i] > lim))
            min2 = block_min2(p, p->b + i, px, py, min2);
    }
    double d = sqrt(min2);
    return flips ? d : -d;
}

/* max maxd first; on a tie the earlier push */
static inline int above(const cell_t *a, const cell_t *b)
{
    return a->maxd > b->maxd || (a->maxd == b->maxd && a->seq < b->seq);
}

static int heap_push(heap_t *hp, double cx, double cy, double h, double d)
{
    if (hp->n == hp->cap) {
        int64_t cap = hp->cap ? hp->cap * 2 : 1024;
        cell_t *c = realloc(hp->c, (size_t)cap * sizeof(cell_t));
        if (!c)
            return -1;
        hp->c = c;
        hp->cap = cap;
    }
    cell_t x = {d + h * SQRT2, cx, cy, h, d, hp->seq++};
    int64_t i = hp->n++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!above(&x, hp->c + up))
            break;
        hp->c[i] = hp->c[up];
        i = up;
    }
    hp->c[i] = x;
    return 0;
}

static cell_t heap_pop(heap_t *hp)
{
    cell_t top = hp->c[0], x = hp->c[--hp->n];
    int64_t i = 0;
    for (;;) {
        int64_t k = 2 * i + 1;
        if (k >= hp->n)
            break;
        if (k + 1 < hp->n && above(hp->c + k + 1, hp->c + k))
            k++;
        if (!above(hp->c + k, &x))
            break;
        hp->c[i] = hp->c[k];
        i = k;
    }
    hp->c[i] = x;
    return top;
}

/* par: tol, centroid x/y, bbox-centre x/y, bbox min x/y, cell size, grid
 * columns, grid rows.  out: x, y, distance, 1 if MAX_POPS was exceeded. */
static int label_one(const prep_t *p, const double *par, int64_t max_pops,
                     heap_t *hp, double *out)
{
    double tol = par[0], cs = par[7], half = cs / 2.0;
    int64_t nx = (int64_t)par[8], ny = (int64_t)par[9];
    double bx = par[1], by = par[2], bd = signed_distance(p, bx, by);
    double gd = signed_distance(p, par[3], par[4]);
    if (gd < bd) { /* the bbox guess wins only if LOWER (lib.rs:370-374) */
        bx = par[3];
        by = par[4];
        bd = gd;
    }
    hp->n = hp->seq = 0;
    for (int64_t gx = 0; gx < nx; gx++)
        for (int64_t gy = 0; gy < ny; gy++) {
            double cx = (par[5] + (double)gx * cs) + half;
            double cy = (par[6] + (double)gy * cs) + half;
            if (heap_push(hp, cx, cy, half, signed_distance(p, cx, cy)))
                return -1;
        }
    int64_t pops = 0;
    int maxiter = 0;
    while (hp->n) {
        if (++pops > max_pops) {
            maxiter = 1;
            break;
        }
        cell_t c = heap_pop(hp);
        if (c.d > bd) {
            bx = c.cx;
            by = c.cy;
            bd = c.d;
        }
        if (c.maxd - bd <= tol)
            continue;
        double h = c.h / 2.0;
        double kx[4] = {c.cx - h, c.cx + h, c.cx - h, c.cx + h};
        double ky[4] = {c.cy - h, c.cy - h, c.cy + h, c.cy + h};
        for (int j = 0; j < 4; j++)
            if (heap_push(hp, kx[j], ky[j], h, signed_distance(p, kx[j], ky[j])))
                return -1;
    }
    out[0] = bx;
    out[1] = by;
    out[2] = bd;
    out[3] = maxiter;
    return 0;
}

/* Label polygons which[0..n): polygon k owns rings [poly_off[k],
 * poly_off[k+1]), ring r owns vertices [ring_off[r], ring_off[r+1]) of xy
 * (x, y pairs).  par holds 10 doubles and out 4 per entry of which.
 * Returns 0, or -1 when memory runs out. */
int pl_label(int64_t n, const int64_t *which, const double *xy,
             const int64_t *ring_off, const int64_t *poly_off,
             const double *par, int64_t max_pops, double *out)
{
    heap_t hp = {0};
    prep_t p = {0};
    int rc = 0;
    for (int64_t i = 0; i < n && rc == 0; i++) {
        int64_t k = which[i];
        rc = prep_build(&p, xy, ring_off, poly_off[k], poly_off[k + 1]);
        if (rc == 0)
            rc = label_one(&p, par + 10 * i, max_pops, &hp, out + 4 * i);
    }
    prep_free(&p);
    free(hp.c);
    return rc;
}

/* Signed distance of point i to polygon poly[i], for i in [0, n). */
int pl_signed_distance(int64_t npoly, const double *xy, const int64_t *ring_off,
                       const int64_t *poly_off, int64_t n, const double *px,
                       const double *py, const int64_t *poly, double *out)
{
    prep_t *ps = calloc((size_t)(npoly ? npoly : 1), sizeof(prep_t));
    if (!ps)
        return -1;
    int rc = 0;
    for (int64_t k = 0; k < npoly && rc == 0; k++)
        rc = prep_build(ps + k, xy, ring_off, poly_off[k], poly_off[k + 1]);
    for (int64_t i = 0; i < n && rc == 0; i++)
        out[i] = signed_distance(ps + poly[i], px[i], py[i]);
    for (int64_t k = 0; k < npoly; k++)
        prep_free(ps + k);
    free(ps);
    return rc;
}

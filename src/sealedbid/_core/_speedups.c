/* Compiled hot kernels: keccak-256 and secp256k1 group math.
 *
 * Implements the four-call backend contract stated in `sealedbid.crypto`
 * (`keccak_256`, `scalar_mult_base`, `double_mult_base`, `lift_x`); results
 * match the pure-Python reference `_purepy` exactly.
 *
 * Field elements are four 64-bit limbs, least significant first, kept
 * reduced below p = 2^256 - 2^32 - 977; reductions use 2^256 = 0x1000003D1
 * (mod p). Bytes are read and written one at a time, so nothing depends on
 * the host's byte order. Needs a compiler with `unsigned __int128`.
 *
 * Build: python setup.py build_ext --inplace
 *    or: gcc -shared -fPIC -O3 -I <python include dir> _speedups.c -o ...
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

/* ------------------------------------------------------------------------
 * keccak-256 (original keccak 0x01 padding, not SHA-3 FIPS)
 */

#define RATE 136 /* bytes, for a 256-bit digest */

static const uint64_t KECCAK_RC[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
    0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
    0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

/* rotation offsets for the flat lane layout a[x + 5*y] */
static const int KECCAK_RHO[25] = {
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
};

static inline uint64_t rol64(uint64_t v, int n)
{
    return n ? (v << n) | (v >> (64 - n)) : v;
}

static void keccak_f1600(uint64_t s[25])
{
    uint64_t b[25], c[5], d;
    for (int round = 0; round < 24; round++) {
        for (int x = 0; x < 5; x++)
            c[x] = s[x] ^ s[x + 5] ^ s[x + 10] ^ s[x + 15] ^ s[x + 20];
        for (int x = 0; x < 5; x++) {
            d = c[(x + 4) % 5] ^ rol64(c[(x + 1) % 5], 1);
            for (int y = 0; y < 25; y += 5)
                s[x + y] ^= d;
        }
        for (int x = 0; x < 5; x++)
            for (int y = 0; y < 5; y++)
                b[y + 5 * ((2 * x + 3 * y) % 5)] =
                    rol64(s[x + 5 * y], KECCAK_RHO[x + 5 * y]);
        for (int y = 0; y < 25; y += 5)
            for (int x = 0; x < 5; x++)
                s[x + y] = b[x + y] ^ (~b[(x + 1) % 5 + y] & b[(x + 2) % 5 + y]);
        s[0] ^= KECCAK_RC[round];
    }
}

static void absorb(uint64_t s[25], const uint8_t *block)
{
    for (int i = 0; i < RATE / 8; i++)
        for (int j = 0; j < 8; j++)
            s[i] ^= (uint64_t)block[8 * i + j] << (8 * j);
    keccak_f1600(s);
}

static PyObject *py_keccak_256(PyObject *self, PyObject *arg)
{
    Py_buffer view;
    uint64_t s[25] = {0};
    uint8_t tail[RATE] = {0}, out[32];
    if (PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const uint8_t *p = view.buf;
    Py_ssize_t n = view.len;
    for (; n >= RATE; p += RATE, n -= RATE)
        absorb(s, p);
    memcpy(tail, p, (size_t)n);
    PyBuffer_Release(&view);
    tail[n] ^= 0x01;
    tail[RATE - 1] ^= 0x80;
    absorb(s, tail);
    for (int i = 0; i < 32; i++)
        out[i] = (uint8_t)(s[i / 8] >> (8 * (i % 8)));
    return PyBytes_FromStringAndSize((const char *)out, 32);
}

/* ------------------------------------------------------------------------
 * secp256k1 field arithmetic
 */

typedef struct { uint64_t l[4]; } fe;

#define REDC 0x1000003D1ULL /* 2^256 mod p */

static const fe FE_P = {{0xFFFFFFFEFFFFFC2FULL, ~0ULL, ~0ULL, ~0ULL}};
static const fe FE_ZERO = {{0, 0, 0, 0}};
static const fe SEVEN = {{7, 0, 0, 0}}; /* the curve's b */

/* r = a + b mod 2^256; returns the carry out */
static uint64_t limbs_add(fe *r, const fe *a, const fe *b)
{
    u128 c = 0;
    for (int i = 0; i < 4; i++) {
        c += (u128)a->l[i] + b->l[i];
        r->l[i] = (uint64_t)c;
        c >>= 64;
    }
    return (uint64_t)c;
}

/* r = a - b mod 2^256; returns the borrow out */
static uint64_t limbs_sub(fe *r, const fe *a, const fe *b)
{
    uint64_t borrow = 0;
    for (int i = 0; i < 4; i++) {
        u128 d = (u128)a->l[i] - b->l[i] - borrow;
        r->l[i] = (uint64_t)d;
        borrow = (uint64_t)(d >> 64) & 1;
    }
    return borrow;
}

static int fe_is_zero(const fe *a)
{
    return (a->l[0] | a->l[1] | a->l[2] | a->l[3]) == 0;
}

static int fe_equal(const fe *a, const fe *b)
{
    return memcmp(a->l, b->l, sizeof a->l) == 0;
}

/* r += carry * 2^256 (mod p), then bring r below p */
static void fe_fold(fe *r, uint64_t carry)
{
    while (carry) {
        u128 c = (u128)carry * REDC;
        for (int i = 0; i < 4; i++) {
            c += r->l[i];
            r->l[i] = (uint64_t)c;
            c >>= 64;
        }
        carry = (uint64_t)c;
    }
    for (int i = 3; i >= 0; i--)
        if (r->l[i] != FE_P.l[i]) {
            if (r->l[i] > FE_P.l[i])
                limbs_sub(r, r, &FE_P);
            return;
        }
    memset(r, 0, sizeof *r); /* r == p */
}

/* noinline on fe_add, fe_sub, fe_mul, jac_double and jac_add: they have
 * many call sites, and inlining them into each one slows the build (by
 * about a third with -O3) without speeding the code. */
static __attribute__((noinline)) void fe_add(fe *r, const fe *a, const fe *b)
{
    fe_fold(r, limbs_add(r, a, b));
}

static __attribute__((noinline)) void fe_sub(fe *r, const fe *a, const fe *b)
{
    if (limbs_sub(r, a, b))
        limbs_add(r, r, &FE_P); /* a - b + 2^256 + p, whose carry is dropped */
}

static __attribute__((noinline)) void fe_mul(fe *r, const fe *a, const fe *b)
{
    uint64_t t[8] = {0};
    u128 c;
    for (int i = 0; i < 4; i++) {
        c = 0;
        for (int j = 0; j < 4; j++) {
            c += (u128)a->l[i] * b->l[j] + t[i + j];
            t[i + j] = (uint64_t)c;
            c >>= 64;
        }
        t[i + 4] = (uint64_t)c;
    }
    /* 512 -> 256 bits: low half + high half * REDC, then fold the spill */
    c = 0;
    for (int i = 0; i < 4; i++) {
        c += (u128)t[i + 4] * REDC + t[i];
        r->l[i] = (uint64_t)c;
        c >>= 64;
    }
    fe_fold(r, (uint64_t)c);
}

static void fe_sqr_n(fe *r, const fe *a, int n)
{
    *r = *a;
    while (n-- > 0)
        fe_mul(r, r, r);
}

/* The runs of ones shared by the exponents of fe_inv and fe_sqrt, after
 * libsecp256k1: x_n = a^(2^n - 1) for n = 2, 22 and 223. */
static void fe_pow_runs(fe *x2, fe *x22, fe *x223, const fe *a)
{
    fe x3, x6, x9, x11, x44, x88, x176, x220, t;
    fe_mul(x2, a, a);         fe_mul(x2, x2, a);
    fe_mul(&x3, x2, x2);      fe_mul(&x3, &x3, a);
    fe_sqr_n(&t, &x3, 3);     fe_mul(&x6, &t, &x3);
    fe_sqr_n(&t, &x6, 3);     fe_mul(&x9, &t, &x3);
    fe_sqr_n(&t, &x9, 2);     fe_mul(&x11, &t, x2);
    fe_sqr_n(&t, &x11, 11);   fe_mul(x22, &t, &x11);
    fe_sqr_n(&t, x22, 22);    fe_mul(&x44, &t, x22);
    fe_sqr_n(&t, &x44, 44);   fe_mul(&x88, &t, &x44);
    fe_sqr_n(&t, &x88, 88);   fe_mul(&x176, &t, &x88);
    fe_sqr_n(&t, &x176, 44);  fe_mul(&x220, &t, &x44);
    fe_sqr_n(&t, &x220, 3);   fe_mul(x223, &t, &x3);
}

/* r = a^(p-2) = 1/a: p - 2 has runs of ones of lengths 223, 22, 2 and 1
 * (twice). */
static void fe_inv(fe *r, const fe *a)
{
    fe x2, x22, x223, t;
    fe_pow_runs(&x2, &x22, &x223, a);
    fe_sqr_n(&t, &x223, 23);  fe_mul(&t, &t, &x22);
    fe_sqr_n(&t, &t, 5);      fe_mul(&t, &t, a);
    fe_sqr_n(&t, &t, 3);      fe_mul(&t, &t, &x2);
    fe_sqr_n(&t, &t, 2);      fe_mul(r, &t, a);
}

/* r = a^((p+1)/4), a square root of a when a has one (p = 3 mod 4);
 * (p+1)/4 has runs of ones of lengths 223, 22 and 2. Returns whether
 * r^2 == a. */
static int fe_sqrt(fe *r, const fe *a)
{
    fe x2, x22, x223, t;
    fe_pow_runs(&x2, &x22, &x223, a);
    fe_sqr_n(&t, &x223, 23);  fe_mul(&t, &t, &x22);
    fe_sqr_n(&t, &t, 6);      fe_mul(&t, &t, &x2);
    fe_sqr_n(r, &t, 2);
    fe_mul(&t, r, r);
    return fe_equal(&t, a);
}

/* ------------------------------------------------------------------------
 * Jacobian points on y^2 = x^3 + 7: x = X/Z^2, y = Y/Z^3, Z == 0 is infinity
 */

typedef struct { fe x, y, z; } jac;
typedef struct { fe x, y; } affine;

static const jac G_JAC = {
    {{0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
      0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL}},
    {{0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
      0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL}},
    {{1, 0, 0, 0}},
};

static const jac INFINITY_JAC = {{{0, 0, 0, 0}}, {{1, 0, 0, 0}}, {{0, 0, 0, 0}}};

static __attribute__((noinline)) void jac_double(jac *r, const jac *p)
{
    fe a, b, c, d, e, t;
    if (fe_is_zero(&p->z) || fe_is_zero(&p->y)) {
        *r = INFINITY_JAC;
        return;
    }
    fe_mul(&a, &p->x, &p->x);  /* A = X^2 */
    fe_mul(&b, &p->y, &p->y);  /* B = Y^2 */
    fe_mul(&c, &b, &b);        /* C = B^2 */
    fe_add(&t, &p->x, &b);
    fe_mul(&t, &t, &t);
    fe_sub(&t, &t, &a);
    fe_sub(&t, &t, &c);
    fe_add(&d, &t, &t);        /* D = 2((X+B)^2 - A - C) */
    fe_add(&e, &a, &a);
    fe_add(&e, &e, &a);        /* E = 3A */
    fe_mul(&r->z, &p->y, &p->z);
    fe_add(&r->z, &r->z, &r->z); /* Z3 = 2YZ */
    fe_mul(&r->x, &e, &e);
    fe_sub(&r->x, &r->x, &d);
    fe_sub(&r->x, &r->x, &d);  /* X3 = E^2 - 2D */
    fe_sub(&t, &d, &r->x);
    fe_mul(&t, &e, &t);
    fe_add(&c, &c, &c);
    fe_add(&c, &c, &c);
    fe_add(&c, &c, &c);
    fe_sub(&r->y, &t, &c);     /* Y3 = E(D - X3) - 8C */
}

static __attribute__((noinline)) void jac_add(jac *r, const jac *p1, const jac *p2)
{
    fe z1z1, z2z2, u1, u2, s1, s2, h, i, j, rr, v, t;
    if (fe_is_zero(&p1->z)) {
        *r = *p2;
        return;
    }
    if (fe_is_zero(&p2->z)) {
        *r = *p1;
        return;
    }
    fe_mul(&z1z1, &p1->z, &p1->z);
    fe_mul(&z2z2, &p2->z, &p2->z);
    fe_mul(&u1, &p1->x, &z2z2);
    fe_mul(&u2, &p2->x, &z1z1);
    fe_mul(&s1, &p1->y, &p2->z);
    fe_mul(&s1, &s1, &z2z2);
    fe_mul(&s2, &p2->y, &p1->z);
    fe_mul(&s2, &s2, &z1z1);
    if (fe_equal(&u1, &u2)) {
        if (fe_equal(&s1, &s2))
            jac_double(r, p1);
        else
            *r = INFINITY_JAC;
        return;
    }
    fe_sub(&h, &u2, &u1);      /* H = U2 - U1 */
    fe_add(&i, &h, &h);
    fe_mul(&i, &i, &i);        /* I = (2H)^2 */
    fe_mul(&j, &h, &i);        /* J = H * I */
    fe_sub(&rr, &s2, &s1);
    fe_add(&rr, &rr, &rr);     /* r = 2(S2 - S1) */
    fe_mul(&v, &u1, &i);       /* V = U1 * I */
    fe_add(&t, &p1->z, &p2->z);
    fe_mul(&t, &t, &t);
    fe_sub(&t, &t, &z1z1);
    fe_sub(&t, &t, &z2z2);
    fe_mul(&r->z, &t, &h);     /* Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H */
    fe_mul(&r->x, &rr, &rr);
    fe_sub(&r->x, &r->x, &j);
    fe_sub(&r->x, &r->x, &v);
    fe_sub(&r->x, &r->x, &v);  /* X3 = r^2 - J - 2V */
    fe_sub(&t, &v, &r->x);
    fe_mul(&t, &rr, &t);
    fe_mul(&s1, &s1, &j);
    fe_add(&s1, &s1, &s1);
    fe_sub(&r->y, &t, &s1);    /* Y3 = r(V - X3) - 2 S1 J */
}

/* r = p1 + p2 for an affine p2: jac_add with Z2 = 1, so U1 = X1 and
 * S1 = Y1 and the products with Z2 drop out. */
static void jac_add_affine(jac *r, const jac *p1, const affine *p2)
{
    fe z1z1, u2, s2, h, i, j, rr, v, t;
    if (fe_is_zero(&p1->z)) {
        r->x = p2->x;
        r->y = p2->y;
        r->z = G_JAC.z;
        return;
    }
    fe_mul(&z1z1, &p1->z, &p1->z);
    fe_mul(&u2, &p2->x, &z1z1);
    fe_mul(&s2, &p2->y, &p1->z);
    fe_mul(&s2, &s2, &z1z1);
    if (fe_equal(&p1->x, &u2)) {
        if (fe_equal(&p1->y, &s2))
            jac_double(r, p1);
        else
            *r = INFINITY_JAC;
        return;
    }
    fe_sub(&h, &u2, &p1->x);
    fe_add(&i, &h, &h);
    fe_mul(&i, &i, &i);        /* I = (2H)^2 */
    fe_mul(&j, &h, &i);        /* J = H * I */
    fe_sub(&rr, &s2, &p1->y);
    fe_add(&rr, &rr, &rr);     /* r = 2(S2 - Y1) */
    fe_mul(&v, &p1->x, &i);    /* V = X1 * I */
    fe_mul(&r->z, &p1->z, &h);
    fe_add(&r->z, &r->z, &r->z); /* Z3 = 2 Z1 H */
    fe_mul(&t, &p1->y, &j);    /* before r->y is written, as r may be p1 */
    fe_add(&t, &t, &t);
    fe_mul(&r->x, &rr, &rr);
    fe_sub(&r->x, &r->x, &j);
    fe_sub(&r->x, &r->x, &v);
    fe_sub(&r->x, &r->x, &v);  /* X3 = r^2 - J - 2V */
    fe_sub(&v, &v, &r->x);
    fe_mul(&v, &rr, &v);
    fe_sub(&r->y, &v, &t);     /* Y3 = r(V - X3) - 2 Y1 J */
}

/* 4-bit fixed windows of a 256-bit scalar: nibble i of 32 big-endian bytes,
 * counted from the least significant end. */
#define WINDOWS 64

static int nibble(const uint8_t k[32], int i)
{
    return (k[31 - i / 2] >> (4 * (i & 1))) & 0xF;
}

/* G_TABLE[i][d - 1] = d * 16^i * G in affine form, for digits d in 1..15;
 * filled once when the module is initialised. */

static affine G_TABLE[WINDOWS][15];

static int build_g_table(void)
{
    const int count = WINDOWS * 15;
    jac *pts = PyMem_Malloc(count * sizeof *pts);
    fe *before = PyMem_Malloc(count * sizeof *before);
    fe inv, zi, zi2;
    if (pts == NULL || before == NULL) {
        PyMem_Free(pts);
        PyMem_Free(before);
        PyErr_NoMemory();
        return -1;
    }
    jac base = G_JAC;
    for (int i = 0; i < WINDOWS; i++) {
        jac *row = pts + 15 * i;
        row[0] = base;
        for (int d = 1; d < 15; d++)
            jac_add(&row[d], &row[d - 1], &base);
        jac_add(&base, &base, &row[14]); /* 16^(i+1) * G */
    }
    /* one inversion for all Z: before[n] = Z_0 * ... * Z_(n-1) */
    inv = G_JAC.z;
    for (int n = 0; n < count; n++) {
        before[n] = inv;
        fe_mul(&inv, &inv, &pts[n].z);
    }
    fe_inv(&inv, &inv);
    for (int n = count - 1; n >= 0; n--) {
        fe_mul(&zi, &inv, &before[n]); /* 1/Z_n */
        fe_mul(&inv, &inv, &pts[n].z);
        affine *out = &G_TABLE[n / 15][n % 15];
        fe_mul(&zi2, &zi, &zi);
        fe_mul(&out->x, &pts[n].x, &zi2);
        fe_mul(&zi2, &zi2, &zi);
        fe_mul(&out->y, &pts[n].y, &zi2);
    }
    PyMem_Free(pts);
    PyMem_Free(before);
    return 0;
}

/* r = k*G: one table addition per nonzero window, no doublings */
static void base_mult(jac *r, const uint8_t k[32])
{
    *r = INFINITY_JAC;
    for (int i = 0; i < WINDOWS; i++) {
        int d = nibble(k, i);
        if (d)
            jac_add_affine(r, r, &G_TABLE[i][d - 1]);
    }
}

/* r = k*q by 4-bit fixed windows, most significant first */
static void point_mult(jac *r, const uint8_t k[32], const jac *q)
{
    jac multiples[16]; /* multiples[d] = d*q */
    multiples[1] = *q;
    for (int d = 2; d < 16; d++)
        jac_add(&multiples[d], &multiples[d - 1], q);
    *r = INFINITY_JAC;
    for (int i = WINDOWS - 1; i >= 0; i--) {
        int d = nibble(k, i);
        for (int b = 0; b < 4; b++)
            jac_double(r, r);
        if (d)
            jac_add(r, r, &multiples[d]);
    }
}

/* ------------------------------------------------------------------------
 * Python-facing wrappers
 */

static PyObject *N_INT; /* the group order, as a Python int */

/* int v -> 32 big-endian bytes; OverflowError unless 0 <= v < 2^256 */
static int int_to_bytes(PyObject *v, uint8_t out[32])
{
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "expected an int, got %.200s",
                     Py_TYPE(v)->tp_name);
        return -1;
    }
    PyObject *b = PyObject_CallMethod(v, "to_bytes", "is", 32, "big");
    if (b == NULL)
        return -1;
    memcpy(out, PyBytes_AS_STRING(b), 32);
    Py_DECREF(b);
    return 0;
}

static int scalar_to_bytes(PyObject *k, uint8_t out[32])
{
    PyObject *reduced = PyNumber_Remainder(k, N_INT);
    if (reduced == NULL)
        return -1;
    int rc = int_to_bytes(reduced, out);
    Py_DECREF(reduced);
    return rc;
}

static int int_to_fe(PyObject *v, fe *out)
{
    uint8_t b[32];
    if (int_to_bytes(v, b) < 0)
        return -1;
    for (int i = 0; i < 4; i++) {
        out->l[i] = 0;
        for (int j = 0; j < 8; j++)
            out->l[i] |= (uint64_t)b[31 - 8 * i - j] << (8 * j);
    }
    fe_fold(out, 0); /* reduce a value in [p, 2^256) */
    return 0;
}

static PyObject *fe_to_int(const fe *a)
{
    uint8_t b[32];
    for (int i = 0; i < 32; i++)
        b[31 - i] = (uint8_t)(a->l[i / 8] >> (8 * (i % 8)));
    return PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "y#s",
                               (const char *)b, (Py_ssize_t)32, "big");
}

static PyObject *to_affine(const jac *p)
{
    fe zi, zi2, x, y;
    if (fe_is_zero(&p->z))
        Py_RETURN_NONE;
    fe_inv(&zi, &p->z);
    fe_mul(&zi2, &zi, &zi);
    fe_mul(&x, &p->x, &zi2);
    fe_mul(&y, &p->y, &zi2);
    fe_mul(&y, &y, &zi);
    PyObject *px = fe_to_int(&x), *py = px ? fe_to_int(&y) : NULL;
    PyObject *point = py ? PyTuple_Pack(2, px, py) : NULL;
    Py_XDECREF(px);
    Py_XDECREF(py);
    return point;
}

/* point (x, y) or None -> Jacobian */
static int point_to_jac(PyObject *point, jac *out)
{
    if (point == Py_None) {
        *out = INFINITY_JAC;
        return 0;
    }
    for (int i = 0; i < 2; i++) {
        PyObject *coord = PySequence_GetItem(point, i);
        if (coord == NULL)
            return -1;
        int rc = int_to_fe(coord, i ? &out->y : &out->x);
        Py_DECREF(coord);
        if (rc < 0)
            return -1;
    }
    out->z = G_JAC.z;
    return 0;
}

static PyObject *py_scalar_mult_base(PyObject *self, PyObject *k)
{
    uint8_t kb[32];
    jac r;
    if (scalar_to_bytes(k, kb) < 0)
        return NULL;
    base_mult(&r, kb);
    return to_affine(&r);
}

static PyObject *py_double_mult_base(PyObject *self, PyObject *args)
{
    PyObject *u1, *u2, *point;
    uint8_t k1[32], k2[32];
    jac q, left, right;
    if (!PyArg_ParseTuple(args, "OOO:double_mult_base", &u1, &u2, &point)
        || scalar_to_bytes(u1, k1) < 0 || scalar_to_bytes(u2, k2) < 0
        || point_to_jac(point, &q) < 0)
        return NULL;
    base_mult(&left, k1);
    point_mult(&right, k2, &q);
    jac_add(&left, &left, &right);
    return to_affine(&left);
}

static PyObject *py_lift_x(PyObject *self, PyObject *args)
{
    PyObject *px, *py, *point;
    int odd;
    fe x, y, y2;
    if (!PyArg_ParseTuple(args, "Op:lift_x", &px, &odd) || int_to_fe(px, &x) < 0)
        return NULL;
    fe_mul(&y2, &x, &x);
    fe_mul(&y2, &y2, &x);
    fe_add(&y2, &y2, &SEVEN);
    if (!fe_sqrt(&y, &y2))
        Py_RETURN_NONE;
    if ((int)(y.l[0] & 1) != odd)
        fe_sub(&y, &FE_ZERO, &y);
    py = fe_to_int(&y);
    if (py == NULL)
        return NULL;
    point = PyTuple_Pack(2, px, py);
    Py_DECREF(py);
    return point;
}

static PyMethodDef methods[] = {
    {"keccak_256", py_keccak_256, METH_O,
     "keccak_256(data) -> the 32-byte keccak-256 digest of a bytes-like object."},
    {"scalar_mult_base", py_scalar_mult_base, METH_O,
     "scalar_mult_base(k) -> k*G as (x, y), or None when k = 0 (mod N)."},
    {"double_mult_base", py_double_mult_base, METH_VARARGS,
     "double_mult_base(u1, u2, point) -> u1*G + u2*point as (x, y), or None\n"
     "for infinity; point may be None. The inner loop of key recovery."},
    {"lift_x", py_lift_x, METH_VARARGS,
     "lift_x(x, odd) -> the curve point (x, y) whose y is odd when odd is true\n"
     "and even otherwise, or None when x^3 + 7 has no square root mod p."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "sealedbid._core._speedups",
    .m_doc = "Compiled keccak-256 and secp256k1 kernels; see sealedbid.crypto.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    PyObject *m;
    if (N_INT == NULL) {
        N_INT = PyLong_FromString(
            "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141",
            NULL, 16);
        if (N_INT == NULL)
            return NULL;
    }
    if (build_g_table() < 0)
        return NULL;
    m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "IMPLEMENTATION", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}

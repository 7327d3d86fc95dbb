/* Compiled hot kernels: keccak-256, secp256k1 group math and inverses mod N.
 *
 * Implements the five-call backend contract stated in `sealedbid.crypto`
 * (`keccak_256`, `scalar_mult_base`, `double_mult_base`, `lift_x`,
 * `inverse_mod_n`); results match the pure-Python reference `_purepy`
 * exactly.
 *
 * Field elements are four 64-bit limbs, least significant first, kept
 * reduced below p = 2^256 - 2^32 - 977; reductions use 2^256 = 0x1000003D1
 * (mod p). Scalars use the same four limbs, reduced below the group order
 * N. Bytes are read and written one at a time, so nothing depends on the
 * host's byte order. Needs a compiler with `unsigned __int128`.
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

/* the 64-bit words at p, least and most significant byte first; compilers
 * turn each into one load (byte-swapped where the host order differs) */
static uint64_t load64_le(const uint8_t *p)
{
    return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16
         | (uint64_t)p[3] << 24 | (uint64_t)p[4] << 32 | (uint64_t)p[5] << 40
         | (uint64_t)p[6] << 48 | (uint64_t)p[7] << 56;
}

static uint64_t load64_be(const uint8_t *p)
{
    return (uint64_t)p[7] | (uint64_t)p[6] << 8 | (uint64_t)p[5] << 16
         | (uint64_t)p[4] << 24 | (uint64_t)p[3] << 32 | (uint64_t)p[2] << 40
         | (uint64_t)p[1] << 48 | (uint64_t)p[0] << 56;
}

static void absorb(uint64_t s[25], const uint8_t *block)
{
    for (int i = 0; i < RATE / 8; i++)
        s[i] ^= load64_le(block + 8 * i);
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

/* a = a/2 (mod m) for an odd m and a < m: an odd a gets m added first, so
 * the sum is even, and its carry becomes the top bit */
static void half_mod(fe *a, const fe *m)
{
    uint64_t top = (a->l[0] & 1) ? limbs_add(a, a, m) : 0;
    for (int i = 0; i < 3; i++)
        a->l[i] = a->l[i] >> 1 | a->l[i + 1] << 63;
    a->l[3] = a->l[3] >> 1 | top << 63;
}

/* noinline on fe_add, fe_sub, mul_wide, fe_mul, fe_sqr, jac_double and
 * jac_add: they have many call sites, and inlining them into each one slows
 * the build (by about a third with -O3) without speeding the code. */
static __attribute__((noinline)) void fe_add(fe *r, const fe *a, const fe *b)
{
    fe_fold(r, limbs_add(r, a, b));
}

static __attribute__((noinline)) void fe_sub(fe *r, const fe *a, const fe *b)
{
    if (limbs_sub(r, a, b))
        limbs_add(r, r, &FE_P); /* a - b + 2^256 + p, whose carry is dropped */
}

/* t = a * b, the full 512-bit product */
static __attribute__((noinline)) void mul_wide(uint64_t t[8], const fe *a, const fe *b)
{
    u128 c;
    memset(t, 0, 8 * sizeof *t);
    for (int i = 0; i < 4; i++) {
        c = 0;
        for (int j = 0; j < 4; j++) {
            c += (u128)a->l[i] * b->l[j] + t[i + j];
            t[i + j] = (uint64_t)c;
            c >>= 64;
        }
        t[i + 4] = (uint64_t)c;
    }
}

/* r = t mod p: low half + high half * REDC, then fold the spill */
static void fe_reduce(fe *r, const uint64_t t[8])
{
    u128 c = 0;
    for (int i = 0; i < 4; i++) {
        c += (u128)t[i + 4] * REDC + t[i];
        r->l[i] = (uint64_t)c;
        c >>= 64;
    }
    fe_fold(r, (uint64_t)c);
}

static __attribute__((noinline)) void fe_mul(fe *r, const fe *a, const fe *b)
{
    uint64_t t[8];
    mul_wide(t, a, b);
    fe_reduce(r, t);
}

/* r = a^2: the six cross products a_i*a_j (i < j) once, doubled by a shift,
 * plus the four squares a_i^2; ten multiplications where fe_mul makes 16 */
static __attribute__((noinline)) void fe_sqr(fe *r, const fe *a)
{
    const uint64_t *x = a->l;
    uint64_t t[8];
    u128 c, sq;
    c = (u128)x[0] * x[1];         t[1] = (uint64_t)c; c >>= 64;
    c += (u128)x[0] * x[2];        t[2] = (uint64_t)c; c >>= 64;
    c += (u128)x[0] * x[3];        t[3] = (uint64_t)c; c >>= 64;
    t[4] = (uint64_t)c;
    c = (u128)x[1] * x[2] + t[3];  t[3] = (uint64_t)c; c >>= 64;
    c += (u128)x[1] * x[3] + t[4]; t[4] = (uint64_t)c; c >>= 64;
    t[5] = (uint64_t)c;
    c = (u128)x[2] * x[3] + t[5];  t[5] = (uint64_t)c; c >>= 64;
    t[6] = (uint64_t)c;
    t[7] = t[6] >> 63;
    t[6] = t[6] << 1 | t[5] >> 63;
    t[5] = t[5] << 1 | t[4] >> 63;
    t[4] = t[4] << 1 | t[3] >> 63;
    t[3] = t[3] << 1 | t[2] >> 63;
    t[2] = t[2] << 1 | t[1] >> 63;
    t[1] <<= 1;
    sq = (u128)x[0] * x[0];
    t[0] = (uint64_t)sq;
    c = (u128)t[1] + (uint64_t)(sq >> 64);             t[1] = (uint64_t)c; c >>= 64;
    sq = (u128)x[1] * x[1];
    c += (u128)t[2] + (uint64_t)sq;                    t[2] = (uint64_t)c; c >>= 64;
    c += (u128)t[3] + (uint64_t)(sq >> 64);            t[3] = (uint64_t)c; c >>= 64;
    sq = (u128)x[2] * x[2];
    c += (u128)t[4] + (uint64_t)sq;                    t[4] = (uint64_t)c; c >>= 64;
    c += (u128)t[5] + (uint64_t)(sq >> 64);            t[5] = (uint64_t)c; c >>= 64;
    sq = (u128)x[3] * x[3];
    c += (u128)t[6] + (uint64_t)sq;                    t[6] = (uint64_t)c; c >>= 64;
    t[7] += (uint64_t)(sq >> 64) + (uint64_t)c;
    fe_reduce(r, t);
}

static void fe_sqr_n(fe *r, const fe *a, int n)
{
    *r = *a;
    while (n-- > 0)
        fe_sqr(r, r);
}

/* The runs of ones shared by the exponents of fe_inv and fe_sqrt, after
 * libsecp256k1: x_n = a^(2^n - 1) for n = 2, 22 and 223. */
static void fe_pow_runs(fe *x2, fe *x22, fe *x223, const fe *a)
{
    fe x3, x6, x9, x11, x44, x88, x176, x220, t;
    fe_sqr(x2, a);            fe_mul(x2, x2, a);
    fe_sqr(&x3, x2);          fe_mul(&x3, &x3, a);
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
    fe_sqr(&t, r);
    return fe_equal(&t, a);
}

/* ------------------------------------------------------------------------
 * Scalars: inversion mod the group order N, and the GLV split
 */

static const fe SC_N = {{0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                         0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL}};

static int is_one(const fe *a)
{
    return a->l[0] == 1 && (a->l[1] | a->l[2] | a->l[3]) == 0;
}

static int limbs_less(const fe *a, const fe *b)
{
    for (int i = 3; i >= 0; i--)
        if (a->l[i] != b->l[i])
            return a->l[i] < b->l[i];
    return 0;
}

/* The steps of sc_inv, kept out of line so that its loops stay small: u /= 2
 * for an even u with x /= 2 (mod N), and u -= v with x -= y (mod N). */
static __attribute__((noinline)) void halve_step(fe *u, fe *x)
{
    half_mod(u, &SC_N);
    half_mod(x, &SC_N);
}

static __attribute__((noinline)) void subtract_step(fe *u, fe *x, const fe *v, const fe *y)
{
    limbs_sub(u, u, v);
    if (limbs_sub(x, x, y))
        limbs_add(x, x, &SC_N);
}

/* r = 1/a (mod N) for 0 < a < N, by the binary extended Euclidean
 * algorithm: x1*a = u and x2*a = v (mod N) hold throughout. */
static void sc_inv(fe *r, const fe *a)
{
    fe u = *a, v = SC_N, x1 = {{1, 0, 0, 0}}, x2 = FE_ZERO;
    while (!is_one(&u) && !is_one(&v)) {
        while (!(u.l[0] & 1))
            halve_step(&u, &x1);
        while (!(v.l[0] & 1))
            halve_step(&v, &x2);
        if (limbs_less(&u, &v))
            subtract_step(&v, &x2, &u, &x1);
        else
            subtract_step(&u, &x1, &v, &x2);
    }
    *r = is_one(&u) ? x1 : x2;
}

/* GLV (Gallant-Lambert-Vanstone, CRYPTO 2001) for secp256k1: the map
 * (x, y) -> (beta*x, y), with beta^3 = 1 (mod p), is multiplication by a
 * lambda with lambda^3 = 1 (mod N). The vectors (a1, b1) and (a2, b2), with
 * b2 = a1, span the lattice of pairs (i, j) with i + j*lambda = 0 (mod N),
 * and g1 = round(2^384 * b2 / N), g2 = round(2^384 * -b1 / N); the values
 * are libsecp256k1's. */
static const fe GLV_BETA = {{0xC1396C28719501EEULL, 0x9CF0497512F58995ULL,
                             0x6E64479EAC3434E9ULL, 0x7AE96A2B657C0710ULL}};
static const fe GLV_A1 = {{0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL, 0, 0}};
static const fe GLV_MINUS_B1 = {{0x6F547FA90ABFE4C3ULL, 0xE4437ED6010E8828ULL, 0, 0}};
static const fe GLV_A2 = {{0x57C1108D9D44CFD8ULL, 0x14CA50F7A8E2F3F6ULL, 1, 0}};
static const fe GLV_G1 = {{0xE893209A45DBB031ULL, 0x3DAA8A1471E8CA7FULL,
                           0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL}};
static const fe GLV_G2 = {{0x1571B4AE8AC47F71ULL, 0x221208AC9DF506C6ULL,
                           0x6F547FA90ABFE4C4ULL, 0xE4437ED6010E8828ULL}};

/* r = round(k * g / 2^384) */
static void mul_shift_384(fe *r, const fe *k, const fe *g)
{
    uint64_t t[8];
    mul_wide(t, k, g);
    u128 c = (u128)t[6] + (t[5] >> 63);
    r->l[0] = (uint64_t)c;
    r->l[1] = t[7] + (uint64_t)(c >> 64);
    r->l[2] = r->l[3] = 0;
}

/* r = a * b mod 2^256 */
static void mul_low(fe *r, const fe *a, const fe *b)
{
    uint64_t t[8];
    mul_wide(t, a, b);
    memcpy(r->l, t, sizeof r->l);
}

/* k = k1 + k2*lambda (mod N) with k1 = k - c1*a1 - c2*a2 and
 * k2 = -c1*b1 - c2*b2 for c1 = round(k*b2/N) and c2 = round(-k*b1/N), both
 * computed exactly: they are below 2^128 in size, and held mod 2^256 as
 * two's complement. */
static void split_lambda(fe *k1, fe *k2, const fe *k)
{
    fe c1, c2, t;
    mul_shift_384(&c1, k, &GLV_G1);
    mul_shift_384(&c2, k, &GLV_G2);
    mul_low(&t, &c1, &GLV_A1);
    limbs_sub(k1, k, &t);
    mul_low(&t, &c2, &GLV_A2);
    limbs_sub(k1, k1, &t);
    mul_low(k2, &c1, &GLV_MINUS_B1);
    mul_low(&t, &c2, &GLV_A1);
    limbs_sub(k2, k2, &t);
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

/* libsecp256k1's doubling: L = 3/2 X^2, S = Y^2, T = -X S, X3 = L^2 + 2T,
 * Y3 = -(L (X3 + T) + S^2), Z3 = Y Z; r may be p, whose X and Y are read
 * before they are written */
static __attribute__((noinline)) void jac_double(jac *r, const jac *p)
{
    fe l, s, t;
    if (fe_is_zero(&p->z) || fe_is_zero(&p->y)) {
        *r = INFINITY_JAC;
        return;
    }
    fe_mul(&r->z, &p->z, &p->y);
    fe_sqr(&s, &p->y);
    fe_sqr(&l, &p->x);
    fe_add(&t, &l, &l);
    fe_add(&l, &l, &t);
    half_mod(&l, &FE_P);
    fe_sub(&t, &FE_ZERO, &s);
    fe_mul(&t, &t, &p->x);
    fe_sqr(&r->x, &l);
    fe_add(&r->x, &r->x, &t);
    fe_add(&r->x, &r->x, &t);
    fe_sqr(&s, &s);
    fe_add(&t, &t, &r->x);
    fe_mul(&r->y, &t, &l);
    fe_add(&r->y, &r->y, &s);
    fe_sub(&r->y, &FE_ZERO, &r->y);
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
    fe_sqr(&z1z1, &p1->z);
    fe_sqr(&z2z2, &p2->z);
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
    fe_sqr(&i, &i);            /* I = (2H)^2 */
    fe_mul(&j, &h, &i);        /* J = H * I */
    fe_sub(&rr, &s2, &s1);
    fe_add(&rr, &rr, &rr);     /* r = 2(S2 - S1) */
    fe_mul(&v, &u1, &i);       /* V = U1 * I */
    fe_add(&t, &p1->z, &p2->z);
    fe_sqr(&t, &t);
    fe_sub(&t, &t, &z1z1);
    fe_sub(&t, &t, &z2z2);
    fe_mul(&r->z, &t, &h);     /* Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H */
    fe_sqr(&r->x, &rr);
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
    fe_sqr(&z1z1, &p1->z);
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
    fe_sqr(&i, &i);            /* I = (2H)^2 */
    fe_mul(&j, &h, &i);        /* J = H * I */
    fe_sub(&rr, &s2, &p1->y);
    fe_add(&rr, &rr, &rr);     /* r = 2(S2 - Y1) */
    fe_mul(&v, &p1->x, &i);    /* V = X1 * I */
    fe_mul(&r->z, &p1->z, &h);
    fe_add(&r->z, &r->z, &r->z); /* Z3 = 2 Z1 H */
    fe_mul(&t, &p1->y, &j);    /* before r->y is written, as r may be p1 */
    fe_add(&t, &t, &t);
    fe_sqr(&r->x, &rr);
    fe_sub(&r->x, &r->x, &j);
    fe_sub(&r->x, &r->x, &v);
    fe_sub(&r->x, &r->x, &v);  /* X3 = r^2 - J - 2V */
    fe_sub(&v, &v, &r->x);
    fe_mul(&v, &rr, &v);
    fe_sub(&r->y, &v, &t);     /* Y3 = r(V - X3) - 2 Y1 J */
}

/* The comb for G: 8-bit windows of a 256-bit scalar, window i counted from
 * the least significant end. */
#define COMB_BITS 8
#define COMB_WINDOWS (256 / COMB_BITS)
#define COMB_DIGITS ((1 << COMB_BITS) - 1)

static int comb_digit(const fe *k, int i)
{
    return (k->l[i / 8] >> (COMB_BITS * (i % 8))) & COMB_DIGITS;
}

/* w-NAF digits are odd and below 2^(w-1) in size, nonzero ones at least w
 * places apart: u2*q uses width 5 (odd multiples of q up to 15q, made per
 * call) and u1*G width 9 (up to 255G, from the comb table). */
#define WNAF_Q 5
#define WNAF_G 9
#define ODD_Q (1 << (WNAF_Q - 2))
#define ODD_G (1 << (WNAF_G - 2))
#define WNAF_MAX 257

/* G_TABLE[i][d - 1] = d * 256^i * G in affine form, for digits d in 1..255;
 * G_ODD[0][i] = (2i + 1)*G, from the table's first row, and
 * G_ODD[1][i] = lambda * G_ODD[0][i]. Filled once when the module is
 * initialised. */
static affine G_TABLE[COMB_WINDOWS][COMB_DIGITS];
static affine G_ODD[2][ODD_G];

/* out[n] = pts[n] in affine form, with one inversion for all Z: before[n]
 * holds Z_0 * ... * Z_(n-1) */
static void batch_to_affine(affine *out, const jac *pts, fe *before, int count)
{
    fe inv = G_JAC.z, zi, zi2;
    for (int n = 0; n < count; n++) {
        before[n] = inv;
        fe_mul(&inv, &inv, &pts[n].z);
    }
    fe_inv(&inv, &inv);
    for (int n = count - 1; n >= 0; n--) {
        fe_mul(&zi, &inv, &before[n]); /* 1/Z_n */
        fe_mul(&inv, &inv, &pts[n].z);
        fe_sqr(&zi2, &zi);
        fe_mul(&out[n].x, &pts[n].x, &zi2);
        fe_mul(&zi2, &zi2, &zi);
        fe_mul(&out[n].y, &pts[n].y, &zi2);
    }
}

static int build_g_table(void)
{
    jac *row = PyMem_Malloc(COMB_DIGITS * sizeof *row);
    fe *before = PyMem_Malloc(COMB_DIGITS * sizeof *before);
    if (row == NULL || before == NULL) {
        PyMem_Free(row);
        PyMem_Free(before);
        PyErr_NoMemory();
        return -1;
    }
    jac base = G_JAC;
    for (int i = 0; i < COMB_WINDOWS; i++) {
        row[0] = base;
        for (int d = 1; d < COMB_DIGITS; d++)
            jac_add(&row[d], &row[d - 1], &base);
        jac_add(&base, &base, &row[COMB_DIGITS - 1]); /* 256^(i+1) * G */
        batch_to_affine(G_TABLE[i], row, before, COMB_DIGITS);
    }
    PyMem_Free(row);
    PyMem_Free(before);
    for (int i = 0; i < ODD_G; i++) {
        G_ODD[0][i] = G_ODD[1][i] = G_TABLE[0][2 * i];
        fe_mul(&G_ODD[1][i].x, &G_ODD[1][i].x, &GLV_BETA);
    }
    return 0;
}

/* r = k*G: one table addition per nonzero window, no doublings */
static void base_mult(jac *r, const fe *k)
{
    *r = INFINITY_JAC;
    for (int i = 0; i < COMB_WINDOWS; i++) {
        int d = comb_digit(k, i);
        if (d)
            jac_add_affine(r, r, &G_TABLE[i][d - 1]);
    }
}

/* bits [bit, bit + count) of k, for count < 32; bits past 255 read as zero */
static int get_bits(const fe *k, int bit, int count)
{
    if (bit >= 256)
        return 0;
    uint64_t v = k->l[bit / 64] >> (bit % 64);
    if (bit % 64 + count > 64 && bit / 64 < 3)
        v |= k->l[bit / 64 + 1] << (64 - bit % 64);
    return (int)(v & ((1u << count) - 1));
}

/* d = the width-w NAF of k, a two's complement value: sum of d[i] * 2^i = k;
 * returns the index past the last nonzero digit */
static int wnaf(int16_t d[WNAF_MAX], const fe *k, int w)
{
    fe s = *k;
    int sign = 1, carry = 0, len = 0;
    if (s.l[3] >> 63) { /* negative: write -k and negate the digits */
        limbs_sub(&s, &FE_ZERO, &s);
        sign = -1;
    }
    memset(d, 0, WNAF_MAX * sizeof *d);
    for (int bit = 0; bit < WNAF_MAX;) {
        if (get_bits(&s, bit, 1) == carry) {
            bit++;
            continue;
        }
        int word = get_bits(&s, bit, w) + carry;
        carry = (word >> (w - 1)) & 1;
        word -= carry << w;
        d[bit] = (int16_t)(sign * word);
        len = bit + 1;
        bit += w;
    }
    return len;
}

/* r += digit*p for an odd w-NAF digit, with odd[i] = (2i + 1)*p affine.
 * Given scale = (c^2, c^3), the point first moves onto the curve whose
 * Jacobian Z is scaled by c, where r lives (see odd_multiples). */
static void add_digit(jac *r, const affine *odd, int digit, const fe *scale)
{
    affine t;
    if (digit == 0)
        return;
    t = odd[(digit < 0 ? -digit : digit) / 2];
    if (scale != NULL) {
        fe_mul(&t.x, &t.x, &scale[0]);
        fe_mul(&t.y, &t.y, &scale[1]);
    }
    if (digit < 0)
        fe_sub(&t.y, &FE_ZERO, &t.y);
    jac_add_affine(r, r, &t);
}

/* out[i] = (2i + 1)*q for an affine q, all with one Jacobian Z, returned in
 * zc: (2i + 1)*q = (out[i].x : out[i].y : zc). After libsecp256k1: on the
 * curve whose Z is scaled by that of d = 2q, d and q are affine, so the
 * sums are mixed additions; each is then rescaled to the last sum's Z by
 * the Z ratios, and y^2 = x^3 + 7 scaled this way keeps the doubling and
 * addition formulas, which do not use the 7. */
static void odd_multiples(affine out[ODD_Q], fe *zc, const affine *q)
{
    jac d, pre[ODD_Q];
    fe ratio[ODD_Q], zz, s, s2;
    jac_double(&d, &(jac){q->x, q->y, G_JAC.z});
    affine d_aff = {d.x, d.y};
    fe_sqr(&zz, &d.z);
    fe_mul(&pre[0].x, &q->x, &zz);
    fe_mul(&zz, &zz, &d.z);
    fe_mul(&pre[0].y, &q->y, &zz);
    pre[0].z = G_JAC.z;
    for (int i = 1; i < ODD_Q; i++) {
        /* Z_i / Z_(i-1) = 2H with H = x_d * Z_(i-1)^2 - X_(i-1), as
         * jac_add_affine forms it */
        fe_sqr(&zz, &pre[i - 1].z);
        fe_mul(&s, &d_aff.x, &zz);
        fe_sub(&s, &s, &pre[i - 1].x);
        fe_add(&ratio[i], &s, &s);
        jac_add_affine(&pre[i], &pre[i - 1], &d_aff);
    }
    fe_mul(zc, &pre[ODD_Q - 1].z, &d.z);
    s = G_JAC.z; /* Z_last / Z_i */
    for (int i = ODD_Q - 1; i >= 0; i--) {
        fe_sqr(&s2, &s);
        fe_mul(&out[i].x, &pre[i].x, &s2);
        fe_mul(&s2, &s2, &s);
        fe_mul(&out[i].y, &pre[i].y, &s2);
        if (i > 0)
            fe_mul(&s, &s, &ratio[i]);
    }
}

/* r = u1*G + u2*q by GLV: each scalar k splits as k1 + k2*lambda with k1
 * and k2 of about 128 bits, and lambda*(x, y) = (beta*x, y). One joint
 * w-NAF ladder runs over the four halves, so it makes about 129 doublings
 * where a plain ladder for u2*q alone makes 256. q is affine or infinity. */
static void double_mult(jac *r, const fe *u1, const fe *u2, const jac *q)
{
    affine odd[2][ODD_Q];   /* odd[1][i] = lambda * odd[0][i] */
    int16_t d[4][WNAF_MAX]; /* digits of the halves of u1, then u2 */
    fe half[4], zc = G_JAC.z, scale[2];
    int len = 0, with_q = !fe_is_zero(&q->z);
    split_lambda(&half[0], &half[1], u1);
    split_lambda(&half[2], &half[3], u2);
    for (int j = 0; j < (with_q ? 4 : 2); j++) {
        int n = wnaf(d[j], &half[j], j < 2 ? WNAF_G : WNAF_Q);
        if (n > len)
            len = n;
    }
    if (with_q) {
        odd_multiples(odd[0], &zc, &(affine){q->x, q->y});
        for (int i = 0; i < ODD_Q; i++) {
            odd[1][i] = odd[0][i];
            fe_mul(&odd[1][i].x, &odd[0][i].x, &GLV_BETA);
        }
    }
    fe_sqr(&scale[0], &zc);
    fe_mul(&scale[1], &scale[0], &zc);
    *r = INFINITY_JAC;
    for (int i = len - 1; i >= 0; i--) {
        jac_double(r, r);
        for (int j = 0; j < 2; j++) {
            add_digit(r, G_ODD[j], d[j][i], scale);
            if (with_q)
                add_digit(r, odd[j], d[j + 2][i], NULL);
        }
    }
    fe_mul(&r->z, &r->z, &zc); /* back from the curve scaled by zc */
}

/* ------------------------------------------------------------------------
 * Python-facing wrappers
 */

static PyObject *N_INT; /* the group order, as a Python int */

/* int v -> limbs; OverflowError unless 0 <= v < 2^256 */
static int int_to_limbs(PyObject *v, fe *out)
{
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "expected an int, got %.200s",
                     Py_TYPE(v)->tp_name);
        return -1;
    }
    PyObject *b = PyObject_CallMethod(v, "to_bytes", "is", 32, "big");
    if (b == NULL)
        return -1;
    const uint8_t *bytes = (const uint8_t *)PyBytes_AS_STRING(b);
    for (int i = 0; i < 4; i++)
        out->l[i] = load64_be(bytes + 24 - 8 * i);
    Py_DECREF(b);
    return 0;
}

/* int k -> k mod N as limbs */
static int int_to_scalar(PyObject *k, fe *out)
{
    PyObject *reduced = PyNumber_Remainder(k, N_INT);
    if (reduced == NULL)
        return -1;
    int rc = int_to_limbs(reduced, out);
    Py_DECREF(reduced);
    return rc;
}

static int int_to_fe(PyObject *v, fe *out)
{
    if (int_to_limbs(v, out) < 0)
        return -1;
    fe_fold(out, 0); /* reduce a value in [p, 2^256) */
    return 0;
}

static PyObject *limbs_to_int(const fe *a)
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
    fe_sqr(&zi2, &zi);
    fe_mul(&x, &p->x, &zi2);
    fe_mul(&y, &p->y, &zi2);
    fe_mul(&y, &y, &zi);
    PyObject *px = limbs_to_int(&x), *py = px ? limbs_to_int(&y) : NULL;
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
    fe kn;
    jac r;
    if (int_to_scalar(k, &kn) < 0)
        return NULL;
    base_mult(&r, &kn);
    return to_affine(&r);
}

static PyObject *py_double_mult_base(PyObject *self, PyObject *args)
{
    PyObject *u1, *u2, *point;
    fe k1, k2;
    jac q, r;
    if (!PyArg_ParseTuple(args, "OOO:double_mult_base", &u1, &u2, &point)
        || int_to_scalar(u1, &k1) < 0 || int_to_scalar(u2, &k2) < 0
        || point_to_jac(point, &q) < 0)
        return NULL;
    double_mult(&r, &k1, &k2, &q);
    return to_affine(&r);
}

static PyObject *py_lift_x(PyObject *self, PyObject *args)
{
    PyObject *px, *py, *point;
    int odd;
    fe x, y, y2;
    if (!PyArg_ParseTuple(args, "Op:lift_x", &px, &odd) || int_to_fe(px, &x) < 0)
        return NULL;
    fe_sqr(&y2, &x);
    fe_mul(&y2, &y2, &x);
    fe_add(&y2, &y2, &SEVEN);
    if (!fe_sqrt(&y, &y2))
        Py_RETURN_NONE;
    if ((int)(y.l[0] & 1) != odd)
        fe_sub(&y, &FE_ZERO, &y);
    py = limbs_to_int(&y);
    if (py == NULL)
        return NULL;
    point = PyTuple_Pack(2, px, py);
    Py_DECREF(py);
    return point;
}

static PyObject *py_inverse_mod_n(PyObject *self, PyObject *k)
{
    fe a, r;
    if (int_to_scalar(k, &a) < 0)
        return NULL;
    if (fe_is_zero(&a)) {
        PyErr_SetString(PyExc_ValueError, "base is not invertible for the given modulus");
        return NULL;
    }
    sc_inv(&r, &a);
    return limbs_to_int(&r);
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
    {"inverse_mod_n", py_inverse_mod_n, METH_O,
     "inverse_mod_n(k) -> 1/k mod N; ValueError when k = 0 (mod N)."},
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

/* Compiled hot kernels: keccak-256, secp256k1 group math, inverses and
 * recoverable ECDSA.
 *
 * Implements the backend contract stated in `sealedbid.crypto`: the calls
 * the package makes (`keccak_256`, `scalar_mult_base`, `sign_with_nonce`,
 * `recover_public_key`) and the building blocks the tests compare
 * (`double_mult_base`, `lift_x`, `inverse_mod_n`); results match the
 * pure-Python reference `_purepy` exactly. Signing with a nonce is one call:
 * k*G, s = (z + r*d)/k, low s and the recovery bit, or a rejection of k. The
 * RFC 6979 nonces come from `sealedbid.crypto.secp256k1`, which derives them
 * for both backends with the stdlib's HMAC-SHA256. A recovery is one call.
 *
 * Field elements are four 64-bit limbs, least significant first, kept
 * reduced below p = 2^256 - 2^32 - 977; reductions use 2^256 = 0x1000003D1
 * (mod p). Scalars use the same four limbs, reduced below the group order
 * N. Inverses mod p and mod N are one variable-time safegcd routine
 * (Bernstein-Yang), so their time depends on the input, as signing's does:
 * the enclave is emulated, and no side-channel resistance is claimed. Bytes
 * are read and written one at a time, so nothing depends on the host's
 * byte order. Needs a compiler with `__int128`.
 *
 * Build: python setup.py build_ext --inplace
 *    or: gcc -shared -fPIC -O3 -I <python include dir> _speedups.c -o ...
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Functions with several call sites, or called once per signature rather
 * than once per field operation, are kept out of line: gcc -O3's build time
 * grows with the code that inlining and cloning copy, and the copies do not
 * speed the code. */
#ifdef __clang__
#define OUT_OF_LINE __attribute__((noinline)) /* clang has no noclone */
#else
#define OUT_OF_LINE __attribute__((noinline, noclone))
#endif

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

/* 32 big-endian bytes <-> limbs */
static OUT_OF_LINE void fe_from_be(fe *a, const uint8_t b[32])
{
    for (int i = 0; i < 4; i++)
        a->l[i] = load64_be(b + 24 - 8 * i);
}

static OUT_OF_LINE void fe_to_be(uint8_t b[32], const fe *a)
{
    for (int i = 0; i < 32; i++)
        b[31 - i] = (uint8_t)(a->l[i / 8] >> (8 * (i % 8)));
}

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

static OUT_OF_LINE void fe_add(fe *r, const fe *a, const fe *b)
{
    fe_fold(r, limbs_add(r, a, b));
}

static OUT_OF_LINE void fe_sub(fe *r, const fe *a, const fe *b)
{
    if (limbs_sub(r, a, b))
        limbs_add(r, r, &FE_P); /* a - b + 2^256 + p, whose carry is dropped */
}

/* t = a * b, the full 512-bit product */
static OUT_OF_LINE void mul_wide(uint64_t t[8], const fe *a, const fe *b)
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

static OUT_OF_LINE void fe_mul(fe *r, const fe *a, const fe *b)
{
    uint64_t t[8];
    mul_wide(t, a, b);
    fe_reduce(r, t);
}

/* r = a^2: the six cross products a_i*a_j (i < j) once, doubled by a shift,
 * plus the four squares a_i^2; ten multiplications where fe_mul makes 16 */
static OUT_OF_LINE void fe_sqr(fe *r, const fe *a)
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

static OUT_OF_LINE void fe_sqr_n(fe *r, const fe *a, int n)
{
    *r = *a;
    while (n-- > 0)
        fe_sqr(r, r);
}

/* r = a^((p+1)/4), a square root of a when a has one (p = 3 mod 4). After
 * libsecp256k1: x_n = a^(2^n - 1) is built for n = 2, 22 and 223, the
 * runs of ones in (p+1)/4. Returns whether r^2 == a. */
static int fe_sqrt(fe *r, const fe *a)
{
    fe x2, x3, x6, x9, x11, x22, x44, x88, x176, x220, x223, t;
    fe_sqr(&x2, a);           fe_mul(&x2, &x2, a);
    fe_sqr(&x3, &x2);         fe_mul(&x3, &x3, a);
    fe_sqr_n(&t, &x3, 3);     fe_mul(&x6, &t, &x3);
    fe_sqr_n(&t, &x6, 3);     fe_mul(&x9, &t, &x3);
    fe_sqr_n(&t, &x9, 2);     fe_mul(&x11, &t, &x2);
    fe_sqr_n(&t, &x11, 11);   fe_mul(&x22, &t, &x11);
    fe_sqr_n(&t, &x22, 22);   fe_mul(&x44, &t, &x22);
    fe_sqr_n(&t, &x44, 44);   fe_mul(&x88, &t, &x44);
    fe_sqr_n(&t, &x88, 88);   fe_mul(&x176, &t, &x88);
    fe_sqr_n(&t, &x176, 44);  fe_mul(&x220, &t, &x44);
    fe_sqr_n(&t, &x220, 3);   fe_mul(&x223, &t, &x3);
    fe_sqr_n(&t, &x223, 23);  fe_mul(&t, &t, &x22);
    fe_sqr_n(&t, &t, 6);      fe_mul(&t, &t, &x2);
    fe_sqr_n(r, &t, 2);
    fe_sqr(&t, r);
    return fe_equal(&t, a);
}

/* ------------------------------------------------------------------------
 * Inverses mod p and mod N: Bernstein-Yang safegcd ("Fast constant-time gcd
 * computation and modular inversion", TCHES 2019) in libsecp256k1's
 * variable-time modinv64 form. Values are five signed 62-bit limbs; each
 * round runs 62 divsteps on the low limbs alone (divsteps_62), then applies
 * their 2x2 transition matrix to f, g and to the cofactors d, e
 * (apply_steps). The time depends on the input, as
 * the binary Euclid it replaces did: the enclave is emulated, and no
 * side-channel claim is made.
 */

typedef __int128 i128;
typedef struct { int64_t v[5]; } s62;
typedef struct { int64_t u, v, q, r; } trans;
typedef struct { s62 m; uint64_t inv62; } modulus; /* inv62 = 1/m mod 2^62 */

#define M62 (UINT64_MAX >> 2)

static const modulus MOD_P = {{{-0x1000003D1LL, 0, 0, 0, 256}}, 0x27C7F6E22DDACACFULL};
static const modulus MOD_N = {{{0x3FD25E8CD0364141LL, 0x2ABB739ABD2280EELL, -0x15LL, 0, 256}},
                              0x34F20099AA774EC1ULL};

/* 62 divsteps on the low bits of f (odd) and g; returns the new eta (minus
 * delta) and the matrix t with t * [f, g] = 2^62 * [f', g'] */
static OUT_OF_LINE int64_t divsteps_62(int64_t eta, uint64_t f, uint64_t g,
                                                     trans *t)
{
    uint64_t u = 1, v = 0, q = 0, r = 1, m, w, tmp;
    int i = 62, limit, zeros;
    for (;;) {
        /* the zero bits of g, counted up to i, are divsteps that halve g */
        zeros = __builtin_ctzll(g | (UINT64_MAX << i));
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= zeros;
        i -= zeros;
        if (i == 0)
            break;
        if (eta < 0) {
            /* swap: (f, g) = (g, -f), and cancel up to 6 bits of g; never
             * more than i bits, nor more than eta + 1, after which the sign
             * of eta flips again */
            eta = -eta;
            limit = (int)eta + 1 > i ? i : (int)eta + 1;
            tmp = f; f = g; g = -tmp;
            tmp = u; u = q; q = -tmp;
            tmp = v; v = r; r = -tmp;
            m = (UINT64_MAX >> (64 - limit)) & 63;
            w = (f * g * (f * f - 2)) & m;
        } else {
            /* cancel up to 4 bits of g */
            limit = (int)eta + 1 > i ? i : (int)eta + 1;
            m = (UINT64_MAX >> (64 - limit)) & 15;
            w = f + (((f + 1) & 4) << 1);
            w = (-w * g) & m;
        }
        g += f * w;
        q += u * w;
        r += v * w;
    }
    t->u = (int64_t)u;
    t->v = (int64_t)v;
    t->q = (int64_t)q;
    t->r = (int64_t)r;
    return eta;
}

/* [a, b] = (t * [a, b] + m * [ma, mb]) / 2^62 on the low len limbs: for the
 * cofactors d and e, ma and mb are chosen so that the division is exact
 * and d, e stay in (-2m, m); f and g divide exactly as they are, so they
 * pass NO_MODULUS, which makes ma = mb = 0 */
static const modulus NO_MODULUS = {{{0, 0, 0, 0, 0}}, 0};

static OUT_OF_LINE void apply_steps(s62 *a, s62 *b, int len,
                                                           const trans *t, const modulus *mod)
{
    const int64_t u = t->u, v = t->v, q = t->q, r = t->r;
    int64_t ma = 0, mb = 0;
    i128 ca = (i128)u * a->v[0] + (i128)v * b->v[0];
    i128 cb = (i128)q * a->v[0] + (i128)r * b->v[0];
    if (mod->inv62) {
        int64_t sa = a->v[4] >> 63, sb = b->v[4] >> 63;
        ma = (u & sa) + (v & sb);
        mb = (q & sa) + (r & sb);
        ma -= (int64_t)((mod->inv62 * (uint64_t)ca + (uint64_t)ma) & M62);
        mb -= (int64_t)((mod->inv62 * (uint64_t)cb + (uint64_t)mb) & M62);
    }
    ca = (ca + (i128)mod->m.v[0] * ma) >> 62;
    cb = (cb + (i128)mod->m.v[0] * mb) >> 62;
    for (int i = 1; i < len; i++) {
        ca += (i128)u * a->v[i] + (i128)v * b->v[i] + (i128)mod->m.v[i] * ma;
        cb += (i128)q * a->v[i] + (i128)r * b->v[i] + (i128)mod->m.v[i] * mb;
        a->v[i - 1] = (int64_t)((uint64_t)ca & M62);
        b->v[i - 1] = (int64_t)((uint64_t)cb & M62);
        ca >>= 62;
        cb >>= 62;
    }
    a->v[len - 1] = (int64_t)ca;
    b->v[len - 1] = (int64_t)cb;
}

/* carry so that limbs 0..3 are in [0, 2^62) and limb 4 holds the sign */
static void s62_carry(s62 *x)
{
    for (int i = 0; i < 4; i++) {
        x->v[i + 1] += x->v[i] >> 62;
        x->v[i] &= (int64_t)M62;
    }
}

/* carry, then x += m when x < 0 */
static void s62_add_if_negative(s62 *x, const modulus *mod)
{
    s62_carry(x);
    if (x->v[4] < 0) {
        for (int i = 0; i < 5; i++)
            x->v[i] += mod->m.v[i];
        s62_carry(x);
    }
}

/* r = 1/a (mod m) for a in [0, m); 0 has no inverse and gives 0 */
static OUT_OF_LINE void mod_inverse(fe *r, const fe *a, const modulus *mod)
{
    const uint64_t *l = a->l;
    s62 d = {{0, 0, 0, 0, 0}}, e = {{1, 0, 0, 0, 0}}, f = mod->m;
    s62 g = {{(int64_t)(l[0] & M62), (int64_t)((l[0] >> 62 | l[1] << 2) & M62),
              (int64_t)((l[1] >> 60 | l[2] << 4) & M62),
              (int64_t)((l[2] >> 58 | l[3] << 6) & M62), (int64_t)(l[3] >> 56)}};
    int64_t eta = -1, fn, gn, any;
    int len = 5;
    for (;;) {
        trans t;
        eta = divsteps_62(eta, (uint64_t)f.v[0], (uint64_t)g.v[0], &t);
        apply_steps(&d, &e, 5, &t, mod);
        apply_steps(&f, &g, len, &t, &NO_MODULUS);
        if (g.v[0] == 0) {
            any = 0;
            for (int i = 1; i < len; i++)
                any |= g.v[i];
            if (any == 0)
                break;
        }
        /* drop the top limb once it is 0 or -1 in both f and g */
        fn = f.v[len - 1];
        gn = g.v[len - 1];
        if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
            f.v[len - 2] = (int64_t)((uint64_t)f.v[len - 2] | (uint64_t)fn << 62);
            g.v[len - 2] = (int64_t)((uint64_t)g.v[len - 2] | (uint64_t)gn << 62);
            len--;
        }
    }
    /* now f = +-1 (the gcd) and d = +-1/a: bring d to [0, m) */
    s62_add_if_negative(&d, mod);
    if (f.v[len - 1] < 0)
        for (int i = 0; i < 5; i++)
            d.v[i] = -d.v[i];
    s62_add_if_negative(&d, mod);
    r->l[0] = (uint64_t)d.v[0] | (uint64_t)d.v[1] << 62;
    r->l[1] = (uint64_t)d.v[1] >> 2 | (uint64_t)d.v[2] << 60;
    r->l[2] = (uint64_t)d.v[2] >> 4 | (uint64_t)d.v[3] << 58;
    r->l[3] = (uint64_t)d.v[3] >> 6 | (uint64_t)d.v[4] << 56;
}

/* ------------------------------------------------------------------------
 * Scalars mod the group order N, and the GLV split
 */

static const fe SC_N = {{0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                         0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL}};
static const fe SC_HALF_N = {{0xDFE92F46681B20A0ULL, 0x5D576E7357A4501DULL,
                              0xFFFFFFFFFFFFFFFFULL, 0x7FFFFFFFFFFFFFFFULL}};
static const fe SC_NC = {{0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 1, 0}}; /* 2^256 - N */

static OUT_OF_LINE int limbs_less(const fe *a, const fe *b)
{
    for (int i = 3; i >= 0; i--)
        if (a->l[i] != b->l[i])
            return a->l[i] < b->l[i];
    return 0;
}

/* a mod N for a < 2^256 < 2N */
static OUT_OF_LINE void sc_reduce_once(fe *a)
{
    if (!limbs_less(a, &SC_N))
        limbs_sub(a, a, &SC_N);
}

/* r = a * b + c mod N for c < N: the high half of the 512-bit sum is folded
 * down by 2^256 = 2^256 - N (mod N) until it is gone */
static OUT_OF_LINE void sc_muladd(fe *r, const fe *a, const fe *b, const fe *c)
{
    uint64_t t[8], f[8];
    u128 carry = 0;
    mul_wide(t, a, b);
    for (int i = 0; i < 8; i++) {
        carry += (u128)t[i] + (i < 4 ? c->l[i] : 0);
        t[i] = (uint64_t)carry;
        carry >>= 64;
    }
    while (t[4] | t[5] | t[6] | t[7]) {
        fe high = {{t[4], t[5], t[6], t[7]}};
        mul_wide(f, &high, &SC_NC);
        carry = 0;
        for (int i = 0; i < 8; i++) {
            carry += (u128)f[i] + (i < 4 ? t[i] : 0);
            t[i] = (uint64_t)carry;
            carry >>= 64;
        }
    }
    memcpy(r->l, t, sizeof r->l);
    sc_reduce_once(r);
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
static OUT_OF_LINE void jac_double(jac *r, const jac *p)
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

/* r = p1 + p2 for an affine p2: the general Jacobian sum with Z2 = 1, so
 * U1 = X1 and S1 = Y1 and the products with Z2 drop out. Left to be
 * inlined: out of line, k*G takes about a fifth longer. */
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
    mod_inverse(&inv, &inv, &MOD_P);
    for (int n = count - 1; n >= 0; n--) {
        fe_mul(&zi, &inv, &before[n]); /* 1/Z_n */
        fe_mul(&inv, &inv, &pts[n].z);
        fe_sqr(&zi2, &zi);
        fe_mul(&out[n].x, &pts[n].x, &zi2);
        fe_mul(&zi2, &zi2, &zi);
        fe_mul(&out[n].y, &pts[n].y, &zi2);
    }
}

/* a = p in affine form, for p not at infinity */
static OUT_OF_LINE void jac_to_affine(affine *a, const jac *p)
{
    fe zi, zi2;
    mod_inverse(&zi, &p->z, &MOD_P);
    fe_sqr(&zi2, &zi);
    fe_mul(&a->x, &p->x, &zi2);
    fe_mul(&zi2, &zi2, &zi);
    fe_mul(&a->y, &p->y, &zi2);
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
    affine base = {G_JAC.x, G_JAC.y}; /* 256^i * G */
    jac next;
    for (int i = 0; i < COMB_WINDOWS; i++) {
        row[0] = (jac){base.x, base.y, G_JAC.z};
        for (int d = 1; d < COMB_DIGITS; d++)
            jac_add_affine(&row[d], &row[d - 1], &base);
        batch_to_affine(G_TABLE[i], row, before, COMB_DIGITS);
        jac_add_affine(&next, &row[COMB_DIGITS - 1], &base);
        jac_to_affine(&base, &next);
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
static OUT_OF_LINE void base_mult(jac *r, const fe *k)
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
 * Recoverable ECDSA: signing with a given nonce, with low s, and public-key
 * recovery
 */

/* Signs a digest with the private key d in [1, N) and the nonce k: r = x(k*G),
 * s = (z + r*d)/k with s <= N/2, and the parity of y(k*G), flipped with s.
 * Returns 0 when k is not in [1, N), when x(k*G) >= N (which would need
 * recovery bits 2 or 3), or when r or s is 0; the caller draws the next
 * RFC 6979 nonce. */
static OUT_OF_LINE int ecdsa_sign(fe *r, fe *s, int *bit, const uint8_t digest[32], const fe *d,
                                  const fe *k)
{
    fe z, k_inv;
    jac big_r;
    affine point;
    if (fe_is_zero(k) || !limbs_less(k, &SC_N))
        return 0;
    base_mult(&big_r, k);
    jac_to_affine(&point, &big_r);
    if (!limbs_less(&point.x, &SC_N))
        return 0;
    fe_from_be(&z, digest);
    sc_reduce_once(&z);
    *r = point.x;
    sc_muladd(s, r, d, &z);
    mod_inverse(&k_inv, k, &MOD_N);
    sc_muladd(s, s, &k_inv, &FE_ZERO);
    if (fe_is_zero(r) || fe_is_zero(s))
        return 0;
    *bit = (int)(point.y.l[0] & 1);
    if (limbs_less(&SC_HALF_N, s)) {
        limbs_sub(s, &SC_N, s);
        *bit ^= 1;
    }
    return 1;
}

/* y for the curve point (x, y) with y odd when odd is set and even
 * otherwise; 0 when x^3 + 7 has no square root mod p */
static OUT_OF_LINE int lift_y(fe *y, const fe *x, int odd)
{
    fe y2;
    fe_sqr(&y2, x);
    fe_mul(&y2, &y2, x);
    fe_add(&y2, &y2, &SEVEN);
    if (!fe_sqrt(y, &y2))
        return 0;
    if ((int)(y->l[0] & 1) != odd)
        fe_sub(y, &FE_ZERO, y);
    return 1;
}

enum { RECOVERED, OFF_CURVE, AT_INFINITY };

/* q = (s*R - z*G)/r for the point R with x = r and y of parity odd */
static OUT_OF_LINE int ecdsa_recover(affine *q, const uint8_t digest[32], const fe *r, const fe *s,
                         int odd)
{
    fe z, rn = *r, u1, u2;
    jac big_r = {*r, FE_ZERO, G_JAC.z}, sum;
    fe_fold(&big_r.x, 0);
    if (!lift_y(&big_r.y, &big_r.x, odd))
        return OFF_CURVE;
    fe_from_be(&z, digest);
    sc_reduce_once(&z);
    sc_reduce_once(&rn);
    mod_inverse(&rn, &rn, &MOD_N);
    sc_muladd(&u1, &z, &rn, &FE_ZERO);
    if (!fe_is_zero(&u1))
        limbs_sub(&u1, &SC_N, &u1);
    sc_muladd(&u2, s, &rn, &FE_ZERO);
    double_mult(&sum, &u1, &u2, &big_r);
    if (fe_is_zero(&sum.z))
        return AT_INFINITY;
    jac_to_affine(q, &sum);
    return RECOVERED;
}

/* ------------------------------------------------------------------------
 * Python-facing wrappers
 */

static PyObject *N_INT; /* the group order, as a Python int */

/* int v -> limbs; OverflowError unless 0 <= v < 2^256 */
static OUT_OF_LINE int int_to_limbs(PyObject *v, fe *out)
{
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "expected an int, got %.200s",
                     Py_TYPE(v)->tp_name);
        return -1;
    }
    PyObject *b = PyObject_CallMethod(v, "to_bytes", "is", 32, "big");
    if (b == NULL)
        return -1;
    fe_from_be(out, (const uint8_t *)PyBytes_AS_STRING(b));
    Py_DECREF(b);
    return 0;
}

/* int k -> k mod N as limbs */
static OUT_OF_LINE int int_to_scalar(PyObject *k, fe *out)
{
    PyObject *reduced = PyNumber_Remainder(k, N_INT);
    if (reduced == NULL)
        return -1;
    int rc = int_to_limbs(reduced, out);
    Py_DECREF(reduced);
    return rc;
}

static OUT_OF_LINE int int_to_fe(PyObject *v, fe *out)
{
    if (int_to_limbs(v, out) < 0)
        return -1;
    fe_fold(out, 0); /* reduce a value in [p, 2^256) */
    return 0;
}

static OUT_OF_LINE PyObject *limbs_to_int(const fe *a)
{
    uint8_t b[32];
    fe_to_be(b, a);
    return PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "y#s",
                               (const char *)b, (Py_ssize_t)32, "big");
}

static PyObject *affine_to_point(const affine *a)
{
    PyObject *px = limbs_to_int(&a->x), *py = px ? limbs_to_int(&a->y) : NULL;
    PyObject *point = py ? PyTuple_Pack(2, px, py) : NULL;
    Py_XDECREF(px);
    Py_XDECREF(py);
    return point;
}

static PyObject *to_affine(const jac *p)
{
    affine a;
    if (fe_is_zero(&p->z))
        Py_RETURN_NONE;
    jac_to_affine(&a, p);
    return affine_to_point(&a);
}

/* point (x, y) or None -> Jacobian */
static OUT_OF_LINE int point_to_jac(PyObject *point, jac *out)
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

/* the digest argument, which must be 32 bytes */
static int check_digest(Py_ssize_t len)
{
    if (len == 32)
        return 0;
    PyErr_SetString(PyExc_ValueError, "digest must be 32 bytes");
    return -1;
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
    fe x, y;
    if (!PyArg_ParseTuple(args, "Op:lift_x", &px, &odd) || int_to_fe(px, &x) < 0)
        return NULL;
    if (!lift_y(&y, &x, odd))
        Py_RETURN_NONE;
    py = limbs_to_int(&y);
    if (py == NULL)
        return NULL;
    point = PyTuple_Pack(2, px, py);
    Py_DECREF(py);
    return point;
}

static PyObject *py_inverse_mod_n(PyObject *self, PyObject *k)
{
    fe a;
    if (int_to_scalar(k, &a) < 0)
        return NULL;
    if (fe_is_zero(&a)) {
        PyErr_SetString(PyExc_ValueError, "base is not invertible for the given modulus");
        return NULL;
    }
    mod_inverse(&a, &a, &MOD_N);
    return limbs_to_int(&a);
}

static PyObject *py_sign_with_nonce(PyObject *self, PyObject *args)
{
    const char *digest;
    Py_ssize_t len;
    PyObject *key, *nonce, *pr, *ps, *sig = NULL;
    fe d, k, r, s;
    int bit;
    if (!PyArg_ParseTuple(args, "y#OO:sign_with_nonce", &digest, &len, &key, &nonce)
        || check_digest(len) < 0 || int_to_limbs(key, &d) < 0 || int_to_limbs(nonce, &k) < 0)
        return NULL;
    if (fe_is_zero(&d) || !limbs_less(&d, &SC_N)) {
        PyErr_SetString(PyExc_ValueError, "private key out of range");
        return NULL;
    }
    if (!ecdsa_sign(&r, &s, &bit, (const uint8_t *)digest, &d, &k))
        Py_RETURN_NONE;
    pr = limbs_to_int(&r);
    ps = pr ? limbs_to_int(&s) : NULL;
    if (ps != NULL)
        sig = Py_BuildValue("(OOi)", pr, ps, bit);
    Py_XDECREF(pr);
    Py_XDECREF(ps);
    return sig;
}

static PyObject *py_recover_public_key(PyObject *self, PyObject *args)
{
    const char *digest;
    Py_ssize_t len;
    PyObject *pr, *ps;
    fe r, s;
    affine q;
    int odd;
    if (!PyArg_ParseTuple(args, "y#OOp:recover_public_key", &digest, &len, &pr, &ps, &odd)
        || check_digest(len) < 0 || int_to_limbs(pr, &r) < 0 || int_to_limbs(ps, &s) < 0)
        return NULL;
    switch (ecdsa_recover(&q, (const uint8_t *)digest, &r, &s, odd)) {
    case OFF_CURVE:
        PyErr_SetString(PyExc_ValueError, "signature point is not on the curve");
        return NULL;
    case AT_INFINITY:
        PyErr_SetString(PyExc_ValueError, "recovered the point at infinity");
        return NULL;
    }
    return affine_to_point(&q);
}

static PyMethodDef methods[] = {
    {"keccak_256", py_keccak_256, METH_O,
     "keccak_256(data) -> the 32-byte keccak-256 digest of a bytes-like object."},
    {"scalar_mult_base", py_scalar_mult_base, METH_O,
     "scalar_mult_base(k) -> k*G as (x, y), or None when k = 0 (mod N)."},
    {"sign_with_nonce", py_sign_with_nonce, METH_VARARGS,
     "sign_with_nonce(digest, key, k) -> (r, s, recovery_bit): the signature of a\n"
     "32-byte digest under a key in [1, N) with the nonce k, with s <= N/2; None\n"
     "when k is not in [1, N), when x(k*G) >= N, or when r or s is 0."},
    {"recover_public_key", py_recover_public_key, METH_VARARGS,
     "recover_public_key(digest, r, s, recovery_bit) -> the signer's public key\n"
     "(x, y); ValueError when r names no curve point or the key is infinity."},
    {"double_mult_base", py_double_mult_base, METH_VARARGS,
     "double_mult_base(u1, u2, point) -> u1*G + u2*point as (x, y), or None\n"
     "for infinity; point may be None."},
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
    .m_doc = "Compiled keccak-256, secp256k1 and ECDSA kernels; see sealedbid.crypto.",
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

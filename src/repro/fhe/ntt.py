"""Negacyclic number-theoretic transform (NTT).

The NTT is the workhorse of RNS-CKKS: in the NTT (evaluation) domain,
multiplication in Z_q[x]/(x^N + 1) is element-wise.  CraterLake devotes two
of its largest functional units to it; here we implement the same transform
in vectorized numpy as part of the functional substrate.

:class:`BatchedNttContext` is the one implementation: a four-step matrix
NTT over all limbs of a residue matrix at once, as float64 BLAS matmuls
that are exact by construction (see its docstring).  It maps coefficients
in natural order to evaluations at psi^(2*br(j)+1) in bit-reversed slot
order j.  The transform is pinned by the frozen known-answer vectors in
``tests/fhe/kat/`` and, differentially, by the per-limb radix-2 oracle in
``tests/fhe/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.fhe.primes import root_of_unity
from repro.obs import collector as obs
from repro.reliability import faults as _faults
from repro.reliability import guards as _guards
from repro.reliability.errors import FaultDetectedError, ParameterError


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation reversing log2(n)-bit indices."""
    if n & (n - 1):
        raise ParameterError("n must be a power of two", n=n)
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


_AUTO_PERM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def eval_automorphism_permutation(degree: int, k: int) -> np.ndarray:
    """Index permutation realizing x -> x^k directly on EVAL-domain data.

    The forward negacyclic NTT stores the evaluation at w_j =
    psi^(2*br(j)+1) in slot j (bit-reversed order).  The automorphism
    sends the evaluation at w to the evaluation at w^k, so
    ``out[j] = in[perm[j]]`` with ``2*br(perm[j])+1 = k*(2*br(j)+1) mod
    2N`` (well defined because k is odd).  Pure data movement - no
    transforms, no modular arithmetic - and modulus-independent, so one
    table serves every limb of a residue matrix, exactly how the hardware
    automorphism unit permutes NTT-domain residues without leaving the
    evaluation domain.  Cached per (degree, k mod 2N).
    """
    if k % 2 == 0:
        raise ParameterError("automorphism exponent must be odd", k=k)
    key = (degree, k % (2 * degree))
    perm = _AUTO_PERM_CACHE.get(key)
    if perm is None:
        rev = bit_reverse_permutation(degree)
        exps = key[1] * (2 * rev + 1) % (2 * degree)
        perm = np.argsort(rev)[(exps - 1) // 2]
        perm.setflags(write=False)
        _AUTO_PERM_CACHE[key] = perm
    return perm


def power_table(base, count: int, modulus) -> np.ndarray:
    """``[base^0, base^1, ..., base^(count-1)] mod modulus`` as uint64.

    Square-and-multiply over the exponent's bit decomposition: log2(count)
    vectorized multiplies instead of a length-``count`` Python loop.
    ``base`` and ``modulus`` may also be (L, 1) columns, giving one table
    per row.  Safe in uint64 because factors stay below the 31-bit modulus.
    """
    q = np.asarray(modulus, dtype=np.uint64)
    sq = np.asarray(base, dtype=np.uint64) % q
    out = np.ones(np.broadcast_shapes(sq.shape, (count,)), dtype=np.uint64)
    idx = np.arange(count, dtype=np.uint64)
    for b in range(max(1, count - 1).bit_length()):
        hit = (idx >> np.uint64(b)) & np.uint64(1) == 1
        out[..., hit] = out[..., hit] * sq % q
        sq = sq * sq % q
    return out


def mod_pow_vec(base: np.ndarray, exponent, modulus) -> np.ndarray:
    """Elementwise ``base^exponent mod modulus`` by square-and-multiply.

    One vector multiply per exponent bit instead of per-element Python
    ``pow()`` loops.  ``exponent`` and ``modulus`` may be scalars or
    (L, 1) columns (one exponent and modulus per row).
    """
    q = np.asarray(modulus, dtype=np.uint64)
    e = np.asarray(exponent, dtype=np.uint64)
    sq = np.asarray(base, dtype=np.uint64) % q
    out = np.ones(np.broadcast_shapes(sq.shape, e.shape), dtype=np.uint64)
    for b in range(int(e.max()).bit_length()):
        hit = (e >> np.uint64(b)) & np.uint64(1) == 1
        out = np.where(hit, out * sq % q, out)
        sq = sq * sq % q
    return out


#: Largest degree: the inverse transform checksum sums N products below
#: 2^47 in uint64 (see BatchedNttContext.verify_transform).
_MAX_DEGREE = 1 << 17

#: Largest four-step factor, as log2: every pass is a DFT of at most 64
#: points, so a pass's partial sums stay below 2^53 (see BatchedNttContext).
_FACTOR_BITS = 6


def four_step_factors(degree: int) -> tuple[int, ...]:
    """Split a power-of-two degree into four-step factors, each <= 64.

    Two factors up to N=4096 (256 = 16*16, 4096 = 64*64), a third above
    (8192 = 32*16*16), as few as possible and as even as possible, largest
    first.  N <= 64 is a single factor: one DFT matmul, no twiddle pass.
    """
    if degree < 1 or degree & (degree - 1):
        raise ParameterError("degree must be a power of two", degree=degree)
    bits = degree.bit_length() - 1
    passes = max(1, -(-bits // _FACTOR_BITS))
    out = []
    for i in range(passes):
        b = -(-bits // (passes - i))
        out.append(1 << b)
        bits -= b
    return tuple(out)


def _split16(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m = hi * 2^16 + lo`` with lo in [-2^15, 2^15), both as float64.

    For m < 2^31 both halves are at most 2^15 in magnitude, so a product
    with a residue below 2^31 is below 2^46 and 64 of them sum below 2^52.
    """
    m = m.astype(np.int64)
    lo = ((m + 0x8000) & 0xFFFF) - 0x8000
    return ((m - lo) >> 16).astype(np.float64), lo.astype(np.float64)


class _Pass:
    """One four-step pass's tables: a DFT of ``n`` points along one axis.

    The data is viewed as ``(L, A, n, B)`` (row-major, A = product of the
    earlier factors, B of the later ones).  Every pass but the last
    left-multiplies by a per-limb ``(n, n)`` matrix; the last pass
    (B = 1) right-multiplies by the transpose, so no pass degenerates
    into a batch of matrix-vector products.  The hi and lo halves of each
    matrix are stacked on a new leading axis, so one matmul yields both
    partial sums as contiguous blocks.
    """

    __slots__ = ("n", "left", "shape", "fwd", "inv", "fwd_tw", "inv_tw")

    def __init__(self, n, a, b, left, fwd, inv, tw, itw):
        self.n = n
        self.left = left
        limbs = fwd.shape[0]
        self.shape = (limbs, a, n, b) if left else (limbs, a, n)
        # Matrices come indexed [limb, out, in].
        mats = [np.stack(_split16(m)) for m in (fwd, inv)]
        if left:
            mats = [m[:, :, None] for m in mats]
        else:
            mats = [np.ascontiguousarray(m.transpose(0, 1, 3, 2))
                    for m in mats]
        self.fwd, self.inv = mats
        # Twiddles (None on the first pass), split like the matrices:
        # forward multiplies the data entering the pass, inverse the data
        # leaving its inverse matmul.
        self.fwd_tw, self.inv_tw = (
            None if t is None else np.stack(_split16(t)).reshape(
                (2,) + self.shape)
            for t in (tw, itw))


def _widen(table: np.ndarray, lead) -> np.ndarray:
    """View a (2, ...) split table against ``lead`` batch axes."""
    return table.reshape(table.shape[:1] + (1,) * len(lead)
                         + table.shape[1:])


class _Plan:
    """One transform direction at one batch shape, fully pre-shaped.

    A transform is a list of ``steps``, one per matmul or twiddle
    multiply: the ufunc calls that write its hi/lo products into scratch
    (each operand a table view or the view the previous step left its
    result in), then the views its fold works on.  Running it is a fixed
    sequence of ufunc calls with no reshapes or shape arithmetic.  The
    moduli and twiddle tables are spread over the batch axes once, here:
    numpy runs an elementwise op on same-shape contiguous operands on its
    fast path, and a broadcast one through its slower general loop.
    """

    __slots__ = ("x", "steps", "q_last", "shifted", "wide", "q_full",
                 "below")

    def __init__(self, passes, lead, forward, bufs, q_full, q_f64, qinv):
        def spread(table):
            if not lead:
                return table
            return np.ascontiguousarray(
                np.broadcast_to(table, lead + table.shape))

        prod, twid, k = bufs
        q_f64, qinv = spread(q_f64), spread(qinv)
        self.x = x = twid[:k.size].reshape(lead + passes[0].shape)
        self.steps = []

        def step(calls, out):
            nonlocal x
            hi = out[0]
            self.steps.append((calls, hi, out[1], k.reshape(hi.shape),
                               q_f64.reshape(hi.shape),
                               qinv.reshape(hi.shape)))
            x = hi

        def twiddle(table, p):
            shape = lead + p.shape
            out = twid.reshape((2,) + shape)
            src = x.reshape(shape)
            step(tuple((np.multiply, src, spread(t), o)
                       for t, o in zip(table, out)), out)

        def matmul(table, p):
            out = prod.reshape((2,) + lead + p.shape)
            # An explicit unit axis against the tables' hi/lo axis.
            src = x.reshape((1,) + lead + p.shape)
            table = _widen(table, lead)
            a, b = (table, src) if p.left else (src, table)
            step(((np.matmul, a, b, out),), out)

        for i, p in enumerate(passes):
            if forward and i:
                twiddle(p.fwd_tw, p)
            matmul(p.fwd if forward else p.inv, p)
            if not forward and i < len(passes) - 1:
                twiddle(p.inv_tw, p)
        self.q_last = q_f64.reshape(x.shape)
        self.shifted = k.reshape(x.shape)
        self.q_full = spread(q_full)
        self.wide = k.reshape(self.q_full.shape)
        self.below = twid[:k.size].view(np.uint64).reshape(self.wide.shape)

    def run(self, data: np.ndarray) -> np.ndarray:
        """The transform of ``data`` (shaped like the plan's batch) as a
        fresh canonical uint64 array.

        Each step's product holds exact integers below 2^52 in magnitude
        (matmul partial sums, or twiddle products below 2^45), and its
        fold reduces ``hi * 2^16 + lo`` mod q with two ``rint``
        remainders: ``hi`` first, so that (hi mod q) * 2^16 + lo < 2^46 +
        2^52 stays exact, then the sum.  Each leaves the residue balanced,
        in about [-q/2, q/2] as floats.
        """
        np.copyto(self.x, data.reshape(self.x.shape), casting="unsafe")
        for calls, hi, lo, k, q, qinv in self.steps:
            for fn, a, b, out in calls:
                fn(a, b, out=out)
            np.multiply(hi, qinv, out=k)
            np.rint(k, out=k)
            k *= q
            hi -= k
            hi *= 65536.0
            hi += lo
            np.multiply(hi, qinv, out=k)
            np.rint(k, out=k)
            k *= q
            hi -= k
        # Balanced floats -> canonical uint64: x + q lies in (0, 2q), and
        # one conditional subtraction (unsigned wraparound) finishes.
        np.add(hi, self.q_last, out=self.shifted)
        u = self.wide.astype(np.uint64)
        np.subtract(u, self.q_full, out=self.below)
        return np.minimum(u, self.below, out=u)


class BatchedNttContext:
    """Limb-batched negacyclic NTT over a whole RNS basis: the four-step
    matrix transform CraterLake's NTT unit runs (Sec. 5.3).

    All L residue polynomials of an ``RnsPoly`` are transformed in one
    call.  The degree splits as N = n_1 * ... * n_d
    (:func:`four_step_factors`, every n_i <= 64) and the transform is d
    passes of n_i-point DFTs along one axis each, with an elementwise
    twiddle multiply between passes - the sqrt(N)-point NTTs around a
    transpose of the paper's Fig. 7 (`repro.core.transpose`).  With the
    output in bit-reversed order, the negacyclic exponent
    (2*br(j)+1)*k mod 2N factors exactly into per-pass DFT matrices
    omega_{n_i}^(br(j_i) k_i), the psi^(N/n_1 * k_1) twist (folded into
    the first matrix) and one twiddle per later pass, so the output needs
    no permutation.

    Each pass is a float64 BLAS matmul against the per-limb matrix split
    into balanced 16-bit halves: every partial sum is an integer below
    2^53, hence exact, for any modulus below 2^31 (the bound the
    constructor enforces).  Remainders are ``rint``-based and balanced,
    and the twiddle multiply is the same split on one elementwise
    product.  Every output word is the canonical residue of the
    negacyclic transform, bit for bit what a per-limb radix-2 transform
    computes.  The inverse runs the passes in reverse with the inverse
    matrices and twiddles; N^{-1} is folded into the last matrix.  See
    docs/PERFORMANCE.md, "Four-step NTT".

    Reliability: an installed fault injector corrupts the batched
    *output* (one word of one limb), and the integrity switch verifies
    the end-of-op transform checksum of every limb row in one vectorized
    pass (see :meth:`verify_transform`) and re-executes every k-th
    transform.

    Instances, with their tables, are cached per (moduli tuple, degree)
    via :meth:`get`.
    """

    _cache: dict[tuple[tuple[int, ...], int], "BatchedNttContext"] = {}

    def __init__(self, moduli: tuple[int, ...], degree: int):
        self.moduli = tuple(int(q) for q in moduli)
        self.degree = degree
        self.factors = four_step_factors(degree)
        wide = [q for q in self.moduli if q >= 1 << 31]
        if wide:
            raise ParameterError(
                "modulus must fit in 31 bits: the exactness bound of the "
                "float64 passes", modulus_bits=wide[0].bit_length(),
            )
        if degree > _MAX_DEGREE:
            raise ParameterError(
                "degree above 2^17: the exactness bound of the inverse "
                "transform checksum", degree=degree,
            )
        # One primitive 2N-th root of unity per limb.
        self._psi_col = np.array([root_of_unity(q, 2 * degree)
                                  for q in self.moduli],
                                 dtype=np.uint64)[:, None]
        self.q_col = np.array(self.moduli, dtype=np.uint64)[:, None]
        self.n_mod_col = np.array([degree % q for q in self.moduli],
                                  dtype=np.uint64)[:, None]
        self._q_full = np.ascontiguousarray(
            np.broadcast_to(self.q_col, (len(self.moduli), degree)))
        # The moduli and their reciprocals as float64, for the folds.
        self._q_f64 = self._q_full.astype(np.float64)
        self._qinv = 1.0 / self._q_f64
        self._inv_check: np.ndarray | None = None
        self._work: dict[tuple, tuple[np.ndarray, ...]] = {}
        self._plans: dict[tuple, _Plan] = {}
        self._passes = self._build_passes()

    def _build_passes(self) -> list[_Pass]:
        n, two_n, q = self.degree, 2 * self.degree, self.q_col
        # psi^e for every exponent e mod 2N, one row per limb; psi^-e is
        # the entry at 2N - e.
        psi = power_table(self._psi_col, two_n, q)
        n_inv = np.array([pow(n, int(m) - 2, int(m)) for m in self.moduli],
                         dtype=np.uint64)[:, None, None]
        passes = []
        for i, ni in enumerate(self.factors):
            a = int(np.prod(self.factors[:i]))
            b = n // (a * ni)
            k = np.arange(ni, dtype=np.int64)
            # DFT_{n_i}, rows bit-reversed: omega_{n_i} = psi^(2N/n_i).
            e = 2 * (n // ni) * np.outer(bit_reverse_permutation(ni), k)
            if i == 0:
                e = e + b * k  # the negacyclic twist psi^(N/n_1 * k_1)
            e %= two_n
            fwd = psi[:, e]
            inv = psi[:, (two_n - e.T) % two_n]
            if i == 0:
                inv = inv * n_inv % q[:, :, None]
            tw = itw = None
            if i:
                # psi^(B*k_i*(2*br(J)+1)), J = the earlier output digits.
                t = b * np.outer(2 * bit_reverse_permutation(a) + 1, k)
                t = np.broadcast_to((t % two_n)[:, :, None], (a, ni, b))
                tw = psi[:, t].reshape(len(q), n)
                itw = psi[:, (two_n - t) % two_n].reshape(len(q), n)
            passes.append(_Pass(ni, a, b, i < len(self.factors) - 1,
                                fwd, inv, tw, itw))
        return passes

    @classmethod
    def get(cls, moduli, degree: int) -> "BatchedNttContext":
        """The cached context; a moduli tuple (what every basis holds)
        is looked up as given, anything else normalized first."""
        if type(moduli) is not tuple:
            moduli = tuple(int(q) for q in moduli)
        ctx = cls._cache.get((moduli, degree))
        if ctx is None:
            ctx = cls(moduli, degree)
            cls._cache[(ctx.moduli, degree)] = ctx
        return ctx

    @property
    def level(self) -> int:
        return len(self.moduli)

    def forward(self, data: np.ndarray) -> np.ndarray:
        """Batched negacyclic NTT of a (..., L, N) residue tensor.

        Leading axes batch independent polynomials (e.g. both halves of a
        ciphertext) through the same passes; the per-row moduli broadcast
        across them.
        """
        if obs.is_enabled():
            with obs.span("ntt.forward", "fhe"):
                obs.count("fhe.ntt.forward")
                obs.count("fhe.batch.ntt_rows", data.size // self.degree)
                out = self._forward(data)
        else:
            out = self._forward(data)
        return self._post_transform(data, out, self._forward, False)

    def inverse(self, data: np.ndarray) -> np.ndarray:
        """Batched inverse negacyclic NTT of a (..., L, N) evaluation tensor."""
        if obs.is_enabled():
            with obs.span("ntt.inverse", "fhe"):
                obs.count("fhe.ntt.inverse")
                obs.count("fhe.batch.ntt_rows", data.size // self.degree)
                out = self._inverse(data)
        else:
            out = self._inverse(data)
        return self._post_transform(data, out, self._inverse, True)

    def _plan(self, lead, forward: bool) -> _Plan:
        """The pre-shaped plan for one direction at batch shape ``lead``.

        Both directions at one shape share three flat float64 scratch
        buffers: the matmul products, the twiddle products (whose first
        half also takes the input) and the remainder quotients.  Fresh
        multi-megabyte temporaries per pass would cost more in page
        faults than the arithmetic at large N."""
        plan = self._plans.get((lead, forward))
        if plan is None:
            bufs = self._work.get(lead)
            if bufs is None:
                size = int(np.prod(lead, dtype=np.int64)) * self._q_full.size
                bufs = (np.empty(2 * size), np.empty(2 * size),
                        np.empty(size))
                self._work[lead] = bufs
            passes = self._passes if forward else self._passes[::-1]
            plan = _Plan(passes, lead, forward, bufs, self._q_full,
                         self._q_f64, self._qinv)
            self._plans[(lead, forward)] = plan
        return plan

    def _forward(self, data: np.ndarray) -> np.ndarray:
        return self._plan(data.shape[:-2], True).run(data)

    def _inverse(self, data: np.ndarray) -> np.ndarray:
        """Passes in reverse: forward twiddles enter a pass, inverse ones
        leave it, so both directions alternate matmul and twiddle."""
        return self._plan(data.shape[:-2], False).run(data)

    def _post_transform(self, data, out, kernel, inverse: bool):
        """Reliability tail of a transform: fault hook, then checks.

        An installed fault injector corrupts the *output* (a compute fault
        in a pass - the input stays clean, so both checks below have a
        clean reference); the hook sees the whole (L, N) output, so the
        corruption lands in one word of one limb.  When the integrity
        switch is on, the end-of-op transform checksum
        (:meth:`verify_transform`) runs after every transform, and every
        k-th transform is additionally re-executed and compared.  With
        neither installed this costs two None tests.
        """
        injector = _faults.active_injector()
        if injector is not None:
            injector.maybe_corrupt(_faults.NTT, out)
        integ = _guards.integrity_active()
        if integ is not None:
            if integ.ntt_checksum:
                self.verify_transform(data, out, inverse)
            if integ.ntt_recheck_every:
                integ.ntt_calls += 1
                if integ.ntt_calls % integ.ntt_recheck_every == 0:
                    with obs.span("reliability.ntt.recheck", "reliability"):
                        obs.count("reliability.ntt.recheck")
                        if not np.array_equal(out, kernel(data)):
                            raise FaultDetectedError(
                                "batched NTT re-execution disagrees with "
                                "first run; compute fault in a pass",
                                moduli=self.moduli, degree=self.degree,
                            )
        return out

    # -- end-of-op transform checksums ------------------------------------
    #
    # The transform is linear, so one fixed linear functional of each
    # output row can be predicted from the input row in O(N).  Evaluating
    # the residue polynomial at x=1 gives both directions:
    #
    # * forward:  out[j] enumerates x(w_j) over the primitive 2N-th roots
    #   w_j = psi^(2*br(j)+1); summing the geometric series in k shows
    #   sum_j out[j] == N * in[0]  (mod q).
    # * inverse:  out(1) = sum_k out[k] expressed through the interpolation
    #   formula is (1/N) * sum_j c_j * in[j] with c_j = 2*w_j/(w_j - 1)
    #   (using w_j^N = -1), a per-limb constant row.
    #
    # A corrupted output word shifts the checked sum by a nonzero delta
    # mod q (bit flips below the modulus width cannot be multiples of q),
    # so single-word compute faults are caught with certainty at the cost
    # of one vector sum (forward) or one multiply-accumulate row (inverse).

    def _inverse_check_halves(self) -> np.ndarray:
        """The (L, N) rows c_j = 2*w_j / (w_j - 1) mod q, built once, as
        their 16-bit halves stacked on a leading axis: (c >> 16, c & 0xFFFF).

        A half times a residue is below 2^47, so a row of up to 2^17 such
        products sums exactly in uint64 and the check needs no per-word
        remainder."""
        halves = self._inv_check
        if halves is None:
            q, psi = self.q_col, self._psi_col
            # w_j = psi^(2*br(j)+1) = psi * (psi^2)^br(j), all limbs at once.
            squares = power_table(psi * psi % q, self.degree, q)
            w = psi * squares[:, bit_reverse_permutation(self.degree)] % q
            # (w - 1)^-1 by Fermat, with per-limb exponents q - 2.
            inv = mod_pow_vec((w + q - np.uint64(1)) % q, q - np.uint64(2), q)
            c = np.uint64(2) * w % q * inv % q
            halves = np.stack([c >> np.uint64(16), c & np.uint64(0xFFFF)])
            self._inv_check = halves
        return halves

    def verify_transform(self, data, out, inverse: bool) -> None:
        """Row-wise transform checksums of a batched (i)NTT in one pass.

        Evaluates the linear functionals above for all L limbs with
        per-row moduli; raises :class:`FaultDetectedError` naming the
        mismatching limbs.
        """
        with obs.span("reliability.ntt.checksum", "reliability"):
            obs.count("reliability.ntt.checksum")
            q = self.q_col[:, 0]
            n_mod = self.n_mod_col[:, 0]
            data = np.asarray(data, dtype=np.uint64)
            if inverse:
                halves = _widen(self._inverse_check_halves(),
                                data.shape[:-2])
                sums = (halves * data).sum(axis=-1, dtype=np.uint64) % q
                expect = ((sums[0] << np.uint64(16)) + sums[1]) % q
                got = n_mod * (out.sum(axis=-1, dtype=np.uint64) % q) % q
            else:
                expect = n_mod * data[..., 0] % q
                got = out.sum(axis=-1, dtype=np.uint64) % q
            if not np.array_equal(got, expect):
                bad = sorted({int(i) for i in np.nonzero(got != expect)[-1]})
                raise FaultDetectedError(
                    "transform checksum mismatch; compute fault in an "
                    f"{'iNTT' if inverse else 'NTT'} pass",
                    limbs=bad, degree=self.degree,
                )

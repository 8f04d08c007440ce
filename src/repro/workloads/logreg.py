"""HELR logistic regression training (Han et al. [36], Sec. 8).

Multiple batches of logistic-regression training with 256 features and 256
samples per batch, starting at computational depth L=38.  Unlike F1's
single-iteration version, this runs many iterations, so bootstrapping is
exercised (the point the paper makes about this benchmark).

Per iteration: a batched inner product (X w, via rotations + plaintext
multiplies over the fully packed batch), a degree-7 sigmoid approximation,
and a gradient update (another batched product plus a rotate-accumulate
reduction across samples).
"""

from __future__ import annotations

from repro.compiler.digits import digit_schedule
from repro.compiler.dsl import FheBuilder, Value
from repro.compiler.kernels import polynomial_activation, rotate_accumulate
from repro.ir import Program
from repro.workloads.bootstrap import emit_bootstrap, plan_for

START_LEVEL = 38  # the paper's stated starting depth for this benchmark


def logistic_regression(security: int = 80, degree: int = 65536,
                        iterations: int = 34, features: int = 256) -> Program:
    plan = plan_for(security, degree)
    schedule = digit_schedule(degree, security, plan.top_level)
    b = FheBuilder(
        "logreg", degree=degree, max_level=plan.top_level,
        digit_schedule=schedule,
        description="HELR logistic regression training [36], multi-batch",
    )
    usable = min(START_LEVEL, plan.usable_levels + plan.input_level)
    w = b.input("weights", usable)
    # Depth per iteration: forward product (1) + sigmoid (5) + update (2).
    iter_depth = 8
    for it in range(iterations):
        if w.level <= iter_depth:
            w = emit_bootstrap(b, w, plan, namespace="boot")
        b.phase(f"iter{it}")
        batch = b.input(f"batch{it}", w.level)

        def data_product(x: Value, label: str) -> Value:
            # The 256x256 packed batch product: 16 rotation steps applied
            # across 30 sample blocks (hints shared program-wide), against
            # 128 single-use data plaintexts per iteration.
            acc = None
            for j in range(16):
                r = b.rotate(x, j + 1, hint_id=f"lr/rot{j}", repeat=30)
                t = b.pmult(r, f"{label}/s{j}", rescale=False, repeat=8)
                acc = t if acc is None else b.add(acc, t, repeat=30)
            return b.rescale(acc)

        # Forward: z = X w over the packed batch.
        z = data_product(w, f"X{it}")
        # Sigmoid via degree-7 polynomial.
        s = polynomial_activation(b, z, 7)
        # Gradient: X^T (y - sigma(z)): the transposed product plus a
        # reduction across the 256 samples.
        err = b.mult(s, b.mod_drop(batch, s.level))
        grad = data_product(err, f"Xt{it}")
        grad = rotate_accumulate(b, grad, features, hint_prefix="lr/")
        grad = b.pmult(grad, f"lr/rate{it}")
        w = b.add(b.mod_drop(w, grad.level), grad)
    b.output(w)
    return b.build()

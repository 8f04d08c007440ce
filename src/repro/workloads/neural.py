"""Neural-network benchmarks: ResNet-20, LSTM, and the LoLa networks.

Structural parameters (layers, rotations per layer, activation degrees,
bootstraps per inference) follow the source implementations the paper
benchmarks - Lee et al.'s fully packed ResNet-20 [48] (modified, as the
paper does, to pack all channels into one ciphertext before bootstrapping),
Podschwadt & Takabi's LSTM [57], and Low-Latency CryptoNets [13] - at the
level of detail the performance model consumes: homomorphic op counts,
levels, and operand/hint reuse.
"""

from __future__ import annotations

from repro.compiler.digits import digit_schedule
from repro.compiler.dsl import FheBuilder, Value
from repro.compiler.kernels import (
    matvec,
    polynomial_activation,
)
from repro.ir import Program
from repro.workloads.bootstrap import emit_bootstrap, plan_for


def _deep_builder(name: str, security: int, degree: int, description: str,
                  packed_fraction: float = 1.0):
    plan = plan_for(security, degree)
    if packed_fraction < 1.0:
        from dataclasses import replace

        plan = replace(plan, packed_fraction=packed_fraction)
    schedule = digit_schedule(degree, security, plan.top_level)
    b = FheBuilder(name, degree=degree, max_level=plan.top_level,
                   digit_schedule=schedule, description=description)
    return b, plan


def resnet20(security: int = 80, degree: int = 65536,
             layers: int = 20) -> Program:
    """ResNet-20 inference on one encrypted CIFAR-10 image [48].

    Each residual layer is a multiplexed-packed convolution (a large
    BSGS matrix-vector product over the channel-packed ciphertext) plus a
    high-degree polynomial ReLU [47]; all channels are packed into a single
    ciphertext before each bootstrap (the 38x bootstrapping reduction the
    paper applies, Sec. 8).
    """
    b, plan = _deep_builder(
        "resnet20", security, degree,
        "ResNet-20, fully packed FHE inference (Lee et al. [48], modified)",
    )
    # Multiplexed-packed convolution [48]: 2*(k^2-1) = 16 base shifts, each
    # applied across the multiplexing factor (channel blocks sharing the
    # ciphertext); hints are shared across blocks, which is what makes the
    # packing worthwhile.
    base_shifts = 16
    multiplex = 200     # blocks sharing each shift's rotation hint
    weights_per_shift = 40  # distinct weight plaintexts per shift
    # ReLU is a composition of minimax polynomials [47]; tighter security
    # budgets (fewer usable levels per refresh) drop composition stages, as
    # the source implementation does when the chain shrinks.
    import math

    def poly_depth(degree: int) -> int:
        return math.ceil(math.log2(degree + 1)) + 2

    relu_degrees = (15, 15, 27)
    while (3 + sum(poly_depth(d) for d in relu_degrees)
           >= plan.usable_levels and len(relu_degrees) > 1):
        relu_degrees = relu_degrees[1:]
    relu_depth = sum(poly_depth(d) for d in relu_degrees)

    x = b.input("image", plan.top_level)
    x = Value(x.name, plan.usable_levels)  # inputs arrive shallow, cheap
    level_cost = 3 + relu_depth  # conv + bn + packing + composite ReLU
    for layer in range(layers):
        if x.level <= level_cost:
            x = emit_bootstrap(b, x, plan, namespace="boot")
        b.phase(f"conv{layer}")
        acc = None
        for shift in range(base_shifts):
            r = b.rotate(x, shift + 1, hint_id=f"convshift{shift}",
                         repeat=multiplex)
            t = b.pmult(r, f"conv{layer}/w{shift}",
                        rescale=False, repeat=weights_per_shift)
            acc = t if acc is None else b.add(acc, t, repeat=multiplex)
        x = b.rescale(acc)
        # Channel re-packing rotations after the conv.
        for j in range(8):
            r = b.rotate(x, 1 << j, hint_id=f"rot{1 << j}")
            x = b.add(x, r)
        x = b.pmult(x, f"bn{layer}")  # folded batch-norm scale
        for d in relu_degrees:
            x = polynomial_activation(b, x, d)
    b.phase("fc")
    x = matvec(b, x, 64, weights="fc")
    b.output(x)
    return b.build()


def lstm(security: int = 80, degree: int = 65536,
         timesteps: int = 320, hidden: int = 128) -> Program:
    """LSTM NLP inference [57]: h = sigma(W0 h + W1 x) per timestep.

    Two 128x128 matrix-vector products and a degree-3 activation per step;
    the paper reports 50 bootstrappings per inference, which emerges here
    from 350 timesteps at 3 levels each over a 22-level budget.
    """
    # Timesteps are batched across the 32K slots, so bootstraps operate on
    # well-packed ciphertexts (slightly cheaper transforms than the fully
    # packed standalone benchmark).
    b, plan = _deep_builder(
        "lstm", security, degree,
        "LSTM recurrent inference (Podschwadt & Takabi [57])",
        packed_fraction=0.8,
    )
    h = b.input("h0", plan.usable_levels)
    for step in range(timesteps):
        if h.level <= 4:  # matvec (1) + activation depth (3)
            h = emit_bootstrap(b, h, plan, namespace="boot")
        b.phase(f"step{step}")
        x_t = b.input(f"x{step}", h.level)
        # The replication-packed weight matrices have 16 live diagonals;
        # W0/W1 are reused every timestep, so the compiler keeps them
        # on-chip in compact (2-residue) form and re-extends via the CRB.
        wh = matvec(b, h, hidden, weights="W0", diagonals=16,
                    compact_weights=True)
        wx = matvec(b, x_t, hidden, weights="W1", diagonals=16,
                    compact_weights=True)
        s = b.add(wh, wx)
        h = polynomial_activation(b, s, 3)
    b.output(h)
    return b.build()


def lola_cifar(security: int = 80, degree: int = 16384) -> Program:
    """LoLa-CIFAR [13]: 6 layers, unencrypted weights, no bootstrapping.

    Convolutions are expressed as wide matrix products over the packed
    image, which makes this shallow benchmark rotation-heavy (the paper
    measures 8 GB of traffic and ~50 ms)."""
    b = FheBuilder(
        "lola_cifar", degree=degree, max_level=8,
        description="LoLa CIFAR-10 network, unencrypted weights [13]",
    )
    # (blocks, rotation steps, weight plaintexts) per layer.  LoLa's
    # replication packing makes its convolutions rotation-heavy but
    # multiply-light: many blocks share each rotation hint while the
    # weight data itself is comparatively small.
    layer_shapes = [
        (7000, 15, 6000), (4000, 15, 4000), (2000, 12, 2500),
        (1000, 12, 1500), (500, 10, 800), (120, 10, 200),
    ]
    x = b.input("image", 8)
    for i, (blocks, steps, n_weights) in enumerate(layer_shapes):
        b.phase(f"layer{i}")
        acc = None
        for j in range(steps):
            r = b.rotate(x, j + 1, hint_id=f"l{i}/rot{j}", repeat=blocks)
            t = b.pmult(r, f"w{i}/s{j}", rescale=False,
                        repeat=max(1, n_weights // steps))
            acc = t if acc is None else b.add(acc, t, repeat=blocks)
        if acc.level > 2:
            x = b.rescale(acc)
            if i % 2 == 0:
                x = b.square(x)  # square activation on alternating layers
        else:
            x = acc
    b.output(x)
    return b.build()


def lola_mnist(encrypted_weights: bool, security: int = 80,
               degree: int = 16384) -> Program:
    """LoLa-MNIST [13]: a LeNet-style network, max L between 4 and 8.

    With encrypted weights every weight multiply becomes a full
    ciphertext-ciphertext multiplication (keyswitch included), which is why
    the EW variant moves ~2x the data and runs ~2x slower (Table 3).
    """
    name = "lola_mnist_ew" if encrypted_weights else "lola_mnist_uw"
    b = FheBuilder(
        name, degree=degree, max_level=6,
        description=f"LoLa MNIST, {'encrypted' if encrypted_weights else 'unencrypted'} weights",
    )
    x = b.input("image", 6)
    # conv layer: 5x5 kernels over 8 replication blocks
    b.phase("conv")
    acc = None
    for j in range(25):
        # Kernel shifts share the +-1/+-row rotation hints (8 distinct).
        r = b.rotate(x, j + 1, hint_id=f"rot{j % 8}", repeat=8)
        t = b.pmult(r, f"conv/k{j}", rescale=False, repeat=2)
        acc = t if acc is None else b.add(acc, t, repeat=8)
    x = b.square(b.rescale(acc) if acc.level > 1 else acc)
    # dense 720 -> 100 layer
    b.phase("dense1")
    if encrypted_weights:
        acc = None
        for j in range(48):
            w = b.input(f"w1_{j}", x.level)
            r = b.rotate(x, j + 1, hint_id=f"rot{j % 8}")
            t = b.mult(r, w, rescale=False)
            acc = t if acc is None else b.add(acc, t)
        x = b.rescale(acc)
    else:
        x = matvec(b, x, 48, weights="dense1", diagonals=48,
                   hint_prefix="d1/")
    x = b.square(x)
    b.phase("dense2")
    x = matvec(b, x, 10, weights="dense2", diagonals=10)
    b.output(x)
    return b.build()

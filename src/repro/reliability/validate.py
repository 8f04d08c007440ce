"""Pre-flight validation: reject unschedulable configs and broken programs.

`ChipConfig.__post_init__` catches per-field nonsense at construction;
this pass catches what only the config/program *pairing* reveals - a
register file too small to hold one ciphertext, a ring degree above the
chip's native maximum, keyswitch digit counts exceeding an op's level,
operands consumed before anything defines them.  The simulator runs it
before executing a single op, so a bad setup fails in microseconds with
an actionable message instead of deep inside `repro.core.cost` with a
division by zero or a silently wrong cycle count.

All checks are O(ops) and allocation-free; `simulate` calls
:func:`validate_program` unconditionally.
"""

from __future__ import annotations

from repro.reliability.errors import ConfigError, ScheduleError


def validate_config(cfg) -> None:
    """Config-only checks beyond dataclass field validation.

    ``ChipConfig.__post_init__`` already enforces field sanity; this
    hook exists for checks that need derived quantities and for callers
    validating configs built outside the dataclass (tests, sweeps).

    Also accepts a serving config (`repro.serve.config.ServeConfig`,
    recognized structurally by its ``queue_depth`` field) and rejects
    nonsensical serving setups - a zero-depth queue, a non-positive
    deadline, a packing block that does not tile the slot count - with
    the same :class:`ConfigError` family, so one pre-flight entry point
    covers both the chip and the front-end in front of it.
    """
    if hasattr(cfg, "queue_depth"):
        _validate_serve_config(cfg)
        return
    if cfg.hbm_words_per_cycle <= 0:
        raise ConfigError(
            "config has no HBM bandwidth; nothing can stream",
            config=cfg.name, hbm_phys=cfg.hbm_phys,
            gbps_per_phy=cfg.hbm_gbps_per_phy,
        )
    if cfg.register_file_words < 1:
        raise ConfigError(
            "register file rounds to zero words",
            config=cfg.name, register_file_mb=cfg.register_file_mb,
        )


def _validate_serve_config(cfg) -> None:
    """Reject serving configs that cannot possibly serve.

    Structural sanity only (the knobs' value ranges); capacity checks
    that need the CKKS instantiation (block vs slot count) live here too
    because they are pure arithmetic over config fields.
    """
    if cfg.queue_depth < 1:
        raise ConfigError(
            "serve queue depth must be >= 1; a zero-depth queue sheds "
            "every request", queue_depth=cfg.queue_depth)
    if cfg.default_deadline_s <= 0:
        raise ConfigError(
            "default deadline must be positive virtual seconds",
            default_deadline_s=cfg.default_deadline_s)
    if cfg.degree & (cfg.degree - 1) or cfg.degree < 8:
        raise ConfigError("serve degree must be a power of two >= 8",
                          degree=cfg.degree)
    slots = cfg.degree // 2
    if cfg.block_slots < 2 or cfg.block_slots & (cfg.block_slots - 1):
        raise ConfigError(
            "block_slots must be a power of two >= 2 (the rotate-and-"
            "accumulate reduction halves the stride each step)",
            block_slots=cfg.block_slots)
    if cfg.block_slots > slots:
        raise ConfigError(
            "one tenant block cannot exceed the ciphertext slot count",
            block_slots=cfg.block_slots, slots=slots)
    if cfg.max_batch < 1 or cfg.max_batch > slots // cfg.block_slots:
        raise ConfigError(
            "max_batch must fit the ciphertext's block capacity",
            max_batch=cfg.max_batch, capacity=slots // cfg.block_slots)
    if cfg.max_level < 5:
        raise ConfigError(
            "serving workloads need at least 5 levels: the deepest kind "
            "consumes 3 rescales and must still end at level >= 2 - at "
            "level 1 the last modulus roughly equals the scale, leaving "
            "a ~0.5 representable range that real scores silently wrap "
            "around", max_level=cfg.max_level)
    if cfg.batch_window_s < 0:
        raise ConfigError("batch window cannot be negative",
                          batch_window_s=cfg.batch_window_s)
    if not 0.0 < cfg.degrade_watermark <= 1.0:
        raise ConfigError(
            "degrade watermark is a fraction of queue_depth in (0, 1]",
            degrade_watermark=cfg.degrade_watermark)
    if cfg.max_retries < 0:
        raise ConfigError("max_retries must be >= 0",
                          max_retries=cfg.max_retries)
    if cfg.breaker_threshold < 1:
        raise ConfigError(
            "breaker opens after K >= 1 consecutive failures",
            breaker_threshold=cfg.breaker_threshold)
    if cfg.breaker_cooldown_s < 0:
        raise ConfigError("breaker cooldown cannot be negative",
                          breaker_cooldown_s=cfg.breaker_cooldown_s)
    if cfg.checkpoint_every < 1:
        raise ConfigError("checkpoint_every must be >= 1",
                          checkpoint_every=cfg.checkpoint_every)


def validate_program(program, cfg) -> None:
    """Reject a (program, config) pairing the simulator cannot honor."""
    from repro.core.cost import ciphertext_words
    from repro.ir import HOIST_MODUP, INPUT, KEYSWITCH_KINDS, OUTPUT

    validate_config(cfg)

    if program.degree > cfg.max_degree:
        raise ConfigError(
            f"{program.name} uses N={program.degree}, above {cfg.name}'s "
            f"native maximum {cfg.max_degree}",
            program=program.name, config=cfg.name,
        )

    ct_words = ciphertext_words(program.degree, 1)
    if cfg.register_file_words < ct_words:
        raise ConfigError(
            f"register file ({cfg.register_file_words} words) cannot hold "
            f"even a level-1 ciphertext ({ct_words} words) at "
            f"N={program.degree}; the schedule would thrash every operand",
            program=program.name, config=cfg.name,
        )

    ks = frozenset((*KEYSWITCH_KINDS, HOIST_MODUP))
    max_level = program.max_level
    defined: set[str] = set()
    define = defined.add
    for i, op in enumerate(program.ops):
        kind = op.kind
        level = op.level
        if level > max_level:
            raise ScheduleError(
                f"op {i} ({kind}) runs at level {level}, above the "
                f"program's declared max {max_level}",
                program=program.name, op=i,
            )
        if kind in ks and op.digits > level:
            raise ScheduleError(
                f"op {i} ({kind}) asks for {op.digits}-digit "
                f"keyswitching at level {level}; digits cannot exceed "
                "the live level",
                program=program.name, op=i, digits=op.digits, level=level,
            )
        if kind != INPUT:
            for operand in op.operands:
                if operand not in defined:
                    raise ScheduleError(
                        f"op {i} ({kind}) consumes {operand!r} before "
                        "any op defines it; the stream is not in dataflow "
                        "order",
                        program=program.name, op=i, operand=operand,
                    )
        if kind != OUTPUT:
            define(op.result)

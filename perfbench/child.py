"""Fresh-interpreter work for the benchmark: a setup probe or a traced CLI call.

    python3 perfbench/child.py setup CONFIG [SPANS]
    python3 perfbench/child.py cli SPANS ARG...

``setup`` imports bellsim, loads CONFIG and builds the calibrated model
(readout calibration, heralded state, outcome table): what every CLI call and
script pays before its first trial. ``cli`` runs ``bellsim.cli.main(ARG...)``
as ``python -m bellsim ARG...`` would. With SPANS, both record spans around
the import and the wrapped public calls and write them to that file. bellsim
must be importable (PYTHONPATH=src).
"""

import sys


def setup(config_path: str, spans_path: str | None) -> int:
    if spans_path is None:  # untraced: load nothing of the benchmark's own
        from bellsim import config, engine
        cfg = config.load_config(config_path)
        cfg.readout_model("A")
        cfg.readout_model("B")
        cfg.heralded_state()
        engine.outcome_distribution(cfg)
        return 0
    from spans import Tracer, instrument
    tracer = Tracer()
    with tracer.span("startup.import"):
        from bellsim import config, engine
    with instrument(tracer):
        cfg = config.load_config(config_path)
        cfg.readout_model("A")
        cfg.readout_model("B")
        cfg.heralded_state()
        engine.outcome_distribution(cfg)
    tracer.dump(spans_path)
    return 0


def cli(spans_path: str, args: list[str]) -> int:
    from spans import Tracer, instrument
    tracer = Tracer()
    with tracer.span("startup.import"):
        import bellsim.cli
    with instrument(tracer), tracer.span("cli.main"):
        code = bellsim.cli.main(args)
    tracer.dump(spans_path)
    return code


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return setup(argv[1], argv[2] if len(argv) > 2 else None)
    if len(argv) >= 3 and argv[0] == "cli":
        return cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one ``uqim`` subcommand with spans installed.

Usage: ``python perfbench/launch.py SPANS_JSON PASS_ID -- <uqim argv>``

The interpreter start-up and the import of ``uqim.cli`` happen here, in a
fresh process, so they stay inside the wall time the caller measures.  The
spans and counts are written to SPANS_JSON when the subcommand returns.
"""

import sys

import spans


def main() -> int:
    out_path, pass_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON PASS_ID -- <uqim argv>")
    rec = spans.Recorder(int(pass_id))
    index = rec.open("cli.import")
    import uqim.cli

    rec.close(index)
    spans.install(rec)
    index = rec.open("cli.main")
    try:
        return uqim.cli.main(argv)
    finally:
        rec.close(index)
        rec.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())

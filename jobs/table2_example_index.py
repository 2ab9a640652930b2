"""Entrypoint: reproduce Table II (Fig. 2 example index).

Usage: python jobs/table2_example_index.py

The index is built on the driver by the paper's Algorithm 2
(``Algorithm2Index``), so no Spark session is started.
"""
import argparse

from repro.experiments import table2


def main(argv=None) -> str:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    out = table2.format_table(table2.run())
    print(out)
    return out


if __name__ == "__main__":
    main()

"""Format binary robot rows as CSV text: the writer process of a robots.csv trace.

    python trace_writer.py ROW_TEMPLATE ROWS_PER_BLOCK < float64 rows > robots.csv

stdin carries native float64 rows, one value per '%' field of ROW_TEMPLATE
(for example '%r,%d,%r'), in blocks of up to ROWS_PER_BLOCK rows; a partial
row at the end of the stream is dropped.  Each row
is written as ROW_TEMPLATE % row plus '\\r\\n': '%r' gives a float the text
`csv.writer` gives it and '%d' an integral value its integer text, so the
file is byte for byte the one `csv.writer` would write.  Runs until stdin
closes.  A failed write exits 1 with the reason on stderr.  An interrupt is
ignored: the process that feeds stdin decides when the rows end.  Standard
library only: it runs as a script, outside the package.
"""

import os
import signal
import sys
from array import array


def main(template: str, rows_per_block: int) -> None:
    row = template + "\r\n"
    width = template.count("%")
    row_bytes = width * 8
    block = rows_per_block * row_bytes
    src = sys.stdin.buffer
    dst = sys.stdout.buffer
    while True:
        data = src.read(block)
        if not data:
            break
        values = array("d")
        # whole rows only: a sender cut short mid-write leaves a partial one
        values.frombytes(data[: len(data) - len(data) % row_bytes])
        dst.write((row * (len(values) // width) % tuple(values)).encode())
    dst.flush()


if __name__ == "__main__":
    # an interrupt reaches the simulation, which then sends its last rows
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        main(sys.argv[1], int(sys.argv[2]))
    except OSError as exc:
        sys.stderr.write(f"{exc.strerror or exc}\n")
        sys.stderr.flush()
        os._exit(1)  # not sys.exit: the shutdown would retry the failed write

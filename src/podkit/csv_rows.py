"""The CSV row format, and the helper process that formats streamed columns.

Every matrix CSV podkit writes is headerless, one row per line, each cell
CSV_FMT (17 significant digits, so float64 values round-trip bit-exactly)
and the cells of a row joined by commas.  snapshot_io.write_matrix_csv
formats a finished matrix with row_format in process; a sweep report's
numbers (error_lab.write_report_csv) are CSV_FMT too.

This module needs the standard library alone, so that snapshot_io.CsvStream
can run it as a script in a fresh interpreter,

    python -I -S csv_rows.py

with its standard output open on the CSV's temporary file.  Standard input
carries the matrix a block of columns at a time: a BLOCK header (rows,
columns), then rows x columns native doubles in row order.  A block of no
columns is the end mark.  The helper formats each block's part of every
row as the block arrives and writes the rows at the end mark; input that
ends before the end mark writes nothing and exits 1.
"""

import struct
import sys

CSV_FMT = "%.16e"
BLOCK = struct.Struct("=QQ")


def row_format(cols):
    """The %-format of cols cells of one CSV row, without its newline."""
    return ",".join([CSV_FMT] * cols)


if __name__ == "__main__":
    from array import array

    read = sys.stdin.buffer.read
    pieces = None  # per row, the formatted parts of the blocks so far
    while True:
        head = read(BLOCK.size)
        if len(head) != BLOCK.size:
            sys.exit("input ended before the end mark")
        rows, cols = BLOCK.unpack(head)
        if cols == 0:
            break
        if pieces is None:
            pieces = [[] for _ in range(rows)]
        raw = read(8 * rows * cols)
        if rows != len(pieces) or len(raw) != 8 * rows * cols:
            sys.exit(f"a block of {len(raw)} bytes for {rows} x {cols} doubles")
        cells = array("d", raw).tolist()
        fmt = row_format(cols)
        for i, row in enumerate(pieces):
            row.append(fmt % tuple(cells[i * cols : (i + 1) * cols]))
    try:
        sys.stdout.writelines(",".join(row) + "\n" for row in pieces or ())
        sys.stdout.flush()
    except OSError as exc:
        sys.exit(exc.strerror)

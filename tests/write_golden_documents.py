"""Rewrite tests/golden_documents.json from the current code: one row
(argv, closed_stdout, exit, sha256) per case of tests/test_golden_documents.py.

    PYTHONPATH=src python tests/write_golden_documents.py

Run it only when a change alters documents on purpose, and say which.
"""

import json

from test_golden_documents import TABLE, rows

if __name__ == "__main__":
    table = rows()
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in table) + "\n]\n")
    print(f"{len(table)} rows written to {TABLE}")

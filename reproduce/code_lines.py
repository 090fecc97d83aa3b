"""Print the code lines of each module under src/ and their total.

A code line holds a token other than a comment, a newline or a docstring,
the tokens read with ``tokenize``; a docstring is a statement that is only
a string.  Run from anywhere: ``python reproduce/code_lines.py``.
"""

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines, statement = set(), []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    lines.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


total = 0
for path in sorted(SRC.rglob("*.py")):
    count = code_lines(path)
    total += count
    print(f"{count:6} {path.relative_to(SRC)}")
print(f"{total:6} total")

"""iaa gamma on the 200k-line list, from a file, from stdin and decorated: the reference's bytes."""
import hashlib
from _common import iaa, interval_list, written
import reference
from intervalagreement import survey
text = interval_list(200_000)
# a "#" line every 4,096 lines and a whitespace-only line every 12,288: the C line
# reader refuses a block with a whitespace-only line, so that block is read again
decorated = []
for i, line in enumerate(text.splitlines()):
    decorated += [f"# {i} lines above"] * (i > 0 and i % 4096 == 0)
    decorated += [" \t "] * (i > 0 and i % 12288 == 0)
    decorated.append(line + " # inline" * (i == 7))
decorated = "\r\n".join(decorated) + "\r\n"
read, reads = survey._read_lines, []
survey._read_lines = lambda lines: reads.append(1) or read(lines)
survey.parse_interval_lines(decorated)
blocks = -(-decorated.count("\n") // survey.TEXT_LINES)
again = len(reads) - blocks  # every block is read once, a refused one again
assert 0 < again < blocks, f"{again} of {blocks} blocks read again"
print(f"decorated list: {again} of {blocks} blocks read again, the rest read at once by the C line reader")
out = iaa("gamma", "--input", written(text))
piped = iaa("gamma", "--input", "-", stdin=text.encode())
out_decorated = iaa("gamma", "--input", written(decorated))
want = reference.seed_gamma_text(text).encode()
assert hashlib.sha256(out).hexdigest() == hashlib.sha256(want).hexdigest(), "iaa gamma bytes differ"
assert hashlib.sha256(piped).hexdigest() == hashlib.sha256(out).hexdigest(), "stdin bytes differ from the file's"
assert out_decorated == out, "the decorated list's bytes differ from the plain list's"

"""The README's examples run as written: the Python block against the
imported package, the CLI walkthrough against `python -m eccipher`."""

import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def test_readme_library_example_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def test_readme_cli_walkthrough_runs(run_cli, tmp_path):
    # Each `eccipher ...` command runs in one directory, in order; every
    # `# -> X` comment is the stdout of the command just before it.
    blocks = [block for block in _blocks("sh") if re.search(r"^eccipher ", block, re.MULTILINE)]
    assert len(blocks) == 1
    stdout, checked = None, []
    for line in blocks[0].replace("\\\n", "").splitlines():
        if line.startswith("eccipher "):
            result = run_cli(*shlex.split(line)[1:], cwd=tmp_path)
            assert result.returncode == 0, (line, result.stderr)
            stdout = result.stdout
        elif line.startswith("# -> "):
            assert stdout == line[len("# -> "):] + "\n", line
            checked.append(line[len("# -> "):])
    assert checked == ["b5cl#jvb7p@f", "attack"]

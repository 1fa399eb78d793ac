import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# hypothesis caches the constants of local modules while pytest collects, so
# point its home directory out of the working tree before that happens
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "phonongate-hypothesis")

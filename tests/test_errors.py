import pytest

from fibanyon import errors
from fibanyon.errors import MemoryBudgetError, require_memory

MEMINFO = b"MemTotal:       8000000 kB\nMemFree:        1000000 kB\nMemAvailable:   4000000 kB\n"
V2 = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current")
V1 = ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
      "/sys/fs/cgroup/memory/memory.usage_in_bytes")


@pytest.fixture(autouse=True)
def _fresh_cgroup_probe():
    """Each test finds the cgroup files of its own fake file system, and the
    process's probe is found again afterwards from the real one."""
    errors._cgroup_files.cache_clear()
    yield
    errors._cgroup_files.cache_clear()


def _files(monkeypatch, files):
    monkeypatch.setattr(errors, "_read_head", lambda path, size=512: files.get(path))


@pytest.fixture(autouse=True)
def _no_address_space_limit(monkeypatch):
    """Whatever ``ulimit -v`` the tests run under, none is seen unless a test sets one."""
    monkeypatch.setattr(errors.resource, "getrlimit",
                        lambda which: (errors.resource.RLIM_INFINITY,) * 2)


@pytest.mark.parametrize("files, expected", [
    ({}, None),
    ({"/proc/meminfo": MEMINFO}, 4000000 * 1024),
    ({"/proc/meminfo": b"MemTotal: 8000000 kB\n"}, None),
    # a cgroup limit below MemAvailable wins, v2 and v1
    ({"/proc/meminfo": MEMINFO, V2[0]: b"2147483648\n", V2[1]: b"1073741824\n"}, 2**30),
    ({"/proc/meminfo": MEMINFO, V1[0]: b"2147483648\n", V1[1]: b"1610612736\n"}, 2**29),
    # a cgroup with more headroom than MemAvailable does not raise it
    ({"/proc/meminfo": MEMINFO, V2[0]: b"68719476736\n", V2[1]: b"0\n"}, 4000000 * 1024),
    # no limit: v2 "max", v1's page-aligned largest int64
    ({"/proc/meminfo": MEMINFO, V2[0]: b"max\n", V2[1]: b"1073741824\n"}, 4000000 * 1024),
    ({"/proc/meminfo": MEMINFO, V1[0]: b"9223372036854771712\n", V1[1]: b"1300480000\n"},
     4000000 * 1024),
    # usage over the limit leaves nothing; a limit alone, without meminfo, still counts
    ({V2[0]: b"1073741824\n", V2[1]: b"1073745920\n"}, 0),
    ({V1[0]: b"1073741824\n", V1[1]: b"0\n"}, 2**30),
    # a limit without its usage file is not read
    ({"/proc/meminfo": MEMINFO, V2[0]: b"1073741824\n"}, 4000000 * 1024),
], ids=["nothing", "meminfo", "meminfo-without-available", "v2-limit", "v1-limit",
        "v2-roomy", "v2-max", "v1-unlimited", "v2-exhausted", "v1-only", "v2-no-usage"])
def test_available_bytes_takes_the_smaller_of_meminfo_and_cgroup(monkeypatch, files, expected):
    _files(monkeypatch, files)
    assert errors._available_bytes() == expected


def test_cgroup_files_are_found_once(monkeypatch):
    files = {"/proc/meminfo": MEMINFO, V1[0]: b"2147483648\n", V1[1]: b"1610612736\n"}
    opened = []
    monkeypatch.setattr(errors, "_read_head",
                        lambda path, size=512: opened.append(path) or files.get(path))
    assert errors._available_bytes() == 2**29
    assert V2[0] in opened and opened[-2:] == list(V1)
    opened.clear()
    assert errors._available_bytes() == 2**29
    assert opened == ["/proc/meminfo", *V1]  # the missing v2 files are not tried again


# VmSize past the first 512 bytes, as a long Groups line puts it
STATUS = b"Name:\tpython\nGroups:\t" + b"1000 " * 120 + b"\nVmPeak:\t 3000000 kB\nVmSize:\t 1000000 kB\n"


@pytest.mark.parametrize("files, cap, expected", [
    # the cap minus VmSize, when it is the smallest
    ({"/proc/meminfo": MEMINFO, "/proc/self/status": STATUS}, 3 * 2**30, 3 * 2**30 - 1000000 * 1024),
    ({"/proc/self/status": STATUS}, 3 * 2**30, 3 * 2**30 - 1000000 * 1024),
    # a roomy cap does not raise MemAvailable, and a cap under VmSize leaves nothing
    ({"/proc/meminfo": MEMINFO, "/proc/self/status": STATUS}, 2**40, 4000000 * 1024),
    ({"/proc/meminfo": MEMINFO, "/proc/self/status": STATUS}, 2**29, 0),
    # a cap smaller than the cgroup's headroom wins over it
    ({V2[0]: b"8589934592\n", V2[1]: b"0\n", "/proc/self/status": STATUS}, 2 * 2**30,
     2 * 2**30 - 1000000 * 1024),
    # no limit, or no status to read it against
    ({"/proc/meminfo": MEMINFO, "/proc/self/status": STATUS}, None, 4000000 * 1024),
    ({"/proc/meminfo": MEMINFO}, 2**29, 4000000 * 1024),
    ({"/proc/meminfo": MEMINFO, "/proc/self/status": b"Name:\tpython\n"}, 2**29, 4000000 * 1024),
], ids=["cap", "cap-only", "cap-roomy", "cap-exhausted", "cap-under-cgroup", "unlimited",
        "no-status", "status-without-vmsize"])
def test_available_bytes_takes_the_address_space_limit_less_vmsize(monkeypatch, files, cap,
                                                                    expected):
    assert STATUS.index(b"VmSize:") > 512
    asked = []
    if cap is None:
        cap = errors.resource.RLIM_INFINITY
    monkeypatch.setattr(errors.resource, "getrlimit", lambda which: asked.append(which) or (cap, cap))
    read = []
    monkeypatch.setattr(errors, "_read_head",
                        lambda path, size=512: read.append((path, size)) or files.get(path))
    assert errors._available_bytes() == expected
    assert asked == [errors.resource.RLIMIT_AS]
    if cap != errors.resource.RLIM_INFINITY:
        assert ("/proc/self/status", -1) in read  # the whole file, not its head
    else:
        assert "/proc/self/status" not in {path for path, _ in read}


def test_read_head_reads_the_whole_file_for_minus_one(tmp_path):
    path = tmp_path / "status"
    path.write_bytes(STATUS)
    assert errors._read_head(str(path)) == STATUS[:512]
    assert errors._read_head(str(path), -1) == STATUS
    assert errors._read_head(str(tmp_path / "missing"), -1) is None


def test_require_memory_refuses_over_half_the_cgroup_headroom(monkeypatch):
    _files(monkeypatch, {"/proc/meminfo": MEMINFO, V2[0]: b"3221225472\n",
                         V2[1]: b"1073741824\n"})
    require_memory(2**30, "one GiB")  # half of the 2 GiB left
    with pytest.raises(MemoryBudgetError,
                       match=r"^two GiB needs ~2 GiB, 2 GiB available \(at most half may be used\)$"):
        require_memory(2**31, "two GiB")


@pytest.mark.parametrize("count, unit_bytes, size", [
    (10, 1, 10),
    (10, errors.STACK_BYTES // 3, 3),
    (9, errors.STACK_BYTES // 3, 3),
    (3, errors.STACK_BYTES, 1),
    # an item over the budget still makes a stack of one
    (3, errors.STACK_BYTES + 1, 1),
    (2, 10 * errors.STACK_BYTES, 1),
    # the marginals report's entries (32 bytes) and verify's complex units (16 bytes)
    (3 * 4096 + 5, 32, 4096),
    (50, 16 * 610, 13),
])
def test_stack_slices_cover_the_range_in_order(count, unit_bytes, size):
    slices = errors.stack_slices(count, unit_bytes)
    assert [i for stack in slices for i in range(count)[stack]] == list(range(count))
    assert [stack.stop - stack.start for stack in slices] == (
        [size] * (count // size) + ([count % size] if count % size else []))


def test_stack_slices_of_no_items():
    assert list(errors.stack_slices(0, 16)) == []
    assert list(errors.stack_slices(0, 10 * errors.STACK_BYTES)) == []

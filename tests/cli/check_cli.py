#!/usr/bin/env python3
"""Contract test for stpq_cli's command line.

Checks seven things against a built stpq_cli:

  * invalid input exits 2 with an error naming the offending flag: an
    unknown flag, another command's flag, a value outside a flag's
    choices or range, and a number that does not parse;
  * help matches the parser: each command accepts every flag its --help
    lists (one invocation per command with all of them set, plus --help,
    must exit 0), and --flag=value works like --flag value;
  * a damaged index fails cleanly: on an index whose feature tree 0 root
    points past its node segment (catalog checksum recomputed, so the file
    opens), every query-running command exits 1 and reports Corruption,
    and load --verify and validate report the bad child pointer;
  * build parameters out of range fail cleanly: each --page-size,
    --fill or --signature-* value the library refuses makes build (in
    memory and --external alike, with the same message) and query exit 1
    with InvalidArgument naming the parameter, under the address-space
    cap, leaving no index, .tmp or sort-run file behind;
  * an index whose superblock records STR or insertion packing (the
    bulk-load field older builds could set to 1 or 2) makes query exit 1
    with a request to rebuild;
  * a damaged dataset fails cleanly: a .stpq header claiming ~2^60
    objects makes query exit 1, not abort;
  * hostile files fail cleanly under an address-space cap: a 72-byte
    .stpq declaring a 2^32-term keyword universe (info, query), and
    indexes whose feature table claims 2^33 records or a 2^32-term
    universe (query), each exit 1 with a typed error, never 134.  The cap
    (RLIMIT_AS, set in the child only) is skipped under
    --no-address-cap, for sanitizer builds, which reserve more address
    space than any cap; the cases still run.

Exit code 0 = all checks passed.
"""

import argparse
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile

# .stpqx layout (src/io/index_format.h, src/rtree/node_page.h).
SUPERBLOCK_BYTES = 52
SUPERBLOCK_BULK_LOAD = 16  # u32 offset: 0 = Hilbert, the only packing
CATALOG_ENTRY_BYTES = 56
SEG_FEATURE_TABLE = 2
SEG_FEATURE_TREE_META = 5
SEG_FEATURE_TREE_NODES = 6
NODE_HEADER_BYTES = 8

# A valid sample value for each value placeholder --help prints.
SAMPLE_VALUES = {
    "N": "1", "MS": "1", "MB": "1", "PORT": "0",
    "F": "0.5", "S": "0.01", "T": "0.5", "R": "0.01", "L": "0.5",
    "N[,N...]": "1,2", "FILE": "unused", "DIR": "unused",
    '"a,b;c"': "kw001;kw002",
}

HELP_LINE_RE = re.compile(r"^  --([a-z-]+)(?: (\S+))?\s")

# Address space a hostile-file run may map: well below the 512 MiB one
# keyword set over a 2^32-term universe needs.
ADDRESS_SPACE_CAP = 400 << 20


def run(cli, argv, cwd, address_cap=None):
    """Runs the CLI; `address_cap` bytes cap the child's address space."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_cap, address_cap))
    proc = subprocess.run([cli] + argv, cwd=cwd, capture_output=True,
                          text=True, timeout=60,
                          preexec_fn=limit if address_cap else None)
    return proc.returncode, proc.stdout, proc.stderr


def fnv1a64(data):
    h = 1469598103934665603
    for b in data:
        h ^= b
        h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def read_catalog(data):
    """{(segment type, ordinal): (row, offset, size, slots, slot_bytes)}"""
    (segment_count,) = struct.unpack_from("<I", data, 48)
    rows = {}
    for i in range(segment_count):
        row = SUPERBLOCK_BYTES + i * CATALOG_ENTRY_BYTES
        seg_type, ordinal, offset, size, _, slots, slot_bytes = \
            struct.unpack_from("<IIQQQQI", data, row)
        rows[(seg_type, ordinal)] = (row, offset, size, slots, slot_bytes)
    return rows


def write_resealed(path, data, row, offset, size):
    """Writes `data` to `path` with the catalog checksum in `row`
    recomputed over the segment's edited payload."""
    struct.pack_into("<Q", data, row + 48,
                     fnv1a64(bytes(data[offset:offset + size])))
    with open(path, "wb") as f:
        f.write(data)


def damage_feature_table(src, dst, universe=None, count=None):
    """Copies index `src` to `dst` with feature table 0's universe or
    record count replaced, checksum recomputed.  A new universe also sets
    the first record's keyword block count to 32-bit (universe + 63) / 64,
    so the record agrees with the universe a parser would trust."""
    with open(src, "rb") as f:
        data = bytearray(f.read())
    row, offset, size, _, _ = read_catalog(data)[(SEG_FEATURE_TABLE, 0)]
    # Header: universe u32, count u64; a record: id u32, x, y, score f64,
    # then its keyword block count u32.
    if universe is not None:
        struct.pack_into("<I", data, offset, universe)
        struct.pack_into("<I", data, offset + 12 + 28,
                         ((universe + 63) & 0xFFFFFFFF) // 64)
    if count is not None:
        struct.pack_into("<Q", data, offset + 4, count)
    write_resealed(dst, data, row, offset, size)


def set_bulk_load_field(src, dst, value):
    """Copies index `src` to `dst` with the superblock's bulk-load field
    set to `value` (the superblock carries no checksum)."""
    with open(src, "rb") as f:
        data = bytearray(f.read())
    struct.pack_into("<I", data, SUPERBLOCK_BULK_LOAD, value)
    with open(dst, "wb") as f:
        f.write(data)


def point_root_past_segment(path):
    """Points every child of feature tree 0's root past its node segment
    and recomputes the segment's catalog checksum."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    rows = read_catalog(data)
    _, meta_offset, _, _, _ = rows[(SEG_FEATURE_TREE_META, 0)]
    root, = struct.unpack_from("<I", data, meta_offset)
    keyword_words, = struct.unpack_from("<I", data, meta_offset + 28)
    row, offset, size, slots, slot_bytes = rows[(SEG_FEATURE_TREE_NODES, 0)]
    slot = offset + root * slot_bytes
    count, = struct.unpack_from("<I", data, slot + 4)
    # Columns: keywords, scores, then the child ids.
    ids = slot + NODE_HEADER_BYTES + count * (8 * keyword_words + 8)
    for i in range(count):
        struct.pack_into("<I", data, ids + 4 * i, slots + 7 + i)
    write_resealed(path, data, row, offset, size)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True, help="path to stpq_cli")
    parser.add_argument("--no-address-cap", action="store_true",
                        help="run the hostile-file cases without the "
                             "address-space cap (sanitizer builds)")
    args = parser.parse_args()
    cli = os.path.abspath(args.cli)
    cap = None if args.no_address_cap else ADDRESS_SPACE_CAP

    failures = []

    def check(ok, message):
        print("%s %s" % ("ok  " if ok else "FAIL", message))
        if not ok:
            failures.append(message)

    with tempfile.TemporaryDirectory(prefix="stpq_cli_contract.") as tmp:
        data = os.path.join(tmp, "d.stpq")
        index = os.path.join(tmp, "d.stpqx")
        code, _, err = run(cli, ["generate", "--out", data, "--scale",
                                 "0.01", "--seed", "5"], tmp)
        check(code == 0, "generate exits 0 " + err.strip())
        query = ["query", "--data", data, "--keywords", "kw001;kw002"]

        # ---- invalid input exits 2, naming the flag
        rejected = [
            (query + ["--varient", "nn"], "--varient"),
            (query + ["--algo", "stsd"], "--algo"),
            (["build", "--data", data, "--index", index, "--kind", "ir3"],
             "--kind"),
            (query + ["--variant", "nm"], "--variant"),
            (["bench", "--data", data, "--queries", "abc"], "--queries"),
            (query + ["--k", "3x"], "--k"),
            (query + ["--threads", "4"], "--threads"),
            (query + ["--k"], "--k"),
            (query + ["stray"], "stray"),
            (["bench", "--data", data, "--serve-admin", "70000"],
             "--serve-admin"),
        ]
        for argv, flag in rejected:
            code, _, err = run(cli, argv, tmp)
            check(code == 2 and flag in err,
                  "exit 2 naming %s: %s (got %d: %s)" %
                  (flag, " ".join(argv[:1] + argv[-2:]), code, err.strip()))

        # ---- help matches the parser
        for command in ["generate", "info", "build", "load", "query",
                        "bench", "workload", "profile", "trace",
                        "validate"]:
            code, out, _ = run(cli, [command, "--help"], tmp)
            check(code == 0, "%s --help exits 0" % command)
            argv = [command]
            for line in out.splitlines():
                match = HELP_LINE_RE.match(line)
                if not match:
                    continue
                name, value = match.groups()
                argv.append("--" + name)
                if value is not None:
                    choice = value.split("|")[0] if "|" in value else None
                    sample = choice or SAMPLE_VALUES.get(value)
                    check(sample is not None,
                          "%s --%s: sample value for %s" %
                          (command, name, value))
                    argv.append(sample or "")
            check(len(argv) > 1, "%s --help lists flags" % command)
            code, _, err = run(cli, argv + ["--help"], tmp)
            check(code == 0, "%s accepts every flag its --help lists%s" %
                  (command, (": " + err.strip()) if err else ""))

        code, out, err = run(cli, ["query", "--data=" + data,
                                   "--keywords=kw001;kw002", "--k=3"], tmp)
        check(code == 0 and out.startswith("top-3 "),
              "--flag=value works (%d: %s)" % (code, err.strip()))

        # ---- out-of-range build parameters fail cleanly
        bad_params = [
            (["--fill", "0"], "fill"),
            (["--fill", "1.5"], "fill"),
            (["--kind", "ir2", "--signature-bits", "2",
              "--signature-hashes", "3"], "signature_hashes"),
            (["--kind", "ir2", "--signature-hashes", "0"],
             "signature_hashes"),
            (["--kind", "ir2", "--signature-hashes", "4294967295"],
             "signature_hashes"),
            (["--page-size", "2000000000"], "page_size_bytes"),
            (["--kind", "ir2", "--signature-bits", "4294967295"],
             "signature_bits"),
            (["--kind", "ir2", "--signature-bits", "4294967232"],
             "signature_bits"),
            (["--kind", "ir2", "--signature-bits", "100000000"],
             "signature_bits"),
        ]
        out_dir = os.path.join(tmp, "bad_params")
        os.mkdir(out_dir)
        out_index = os.path.join(out_dir, "x.stpqx")
        for params, name in bad_params:
            errors = []
            for mode in ([], ["--external"]):
                argv = (["build", "--data", data, "--index", out_index] +
                        mode + params)
                code, _, err = run(cli, argv, tmp, address_cap=cap)
                left = os.listdir(out_dir)
                for name_left in left:  # keep the next case independent
                    os.remove(os.path.join(out_dir, name_left))
                check(code == 1 and "InvalidArgument" in err and name in err
                      and not left,
                      "build %s exits 1 naming %s, leaving nothing (got "
                      "%d: %s; left %s)" % (" ".join(mode + params), name,
                                            code, err.strip(), left))
                errors.append(err)
            check(errors[0] == errors[1],
                  "build and build --external refuse %s alike" %
                  " ".join(params))
        code, _, err = run(cli, query + ["--page-size", "2000000000"], tmp,
                           address_cap=cap)
        check(code == 1 and "page_size_bytes" in err,
              "query --page-size 2000000000 exits 1 naming page_size_bytes "
              "(got %d: %s)" % (code, err.strip()))

        # ---- a damaged index fails cleanly
        code, _, err = run(cli, ["build", "--data", data, "--index", index],
                           tmp)
        check(code == 0, "build exits 0 " + err.strip())
        # Hostile copies of the intact index, for the capped runs below.
        hostile_count = os.path.join(tmp, "count.stpqx")
        hostile_universe = os.path.join(tmp, "universe.stpqx")
        damage_feature_table(index, hostile_count, count=1 << 33)
        damage_feature_table(index, hostile_universe, universe=0xFFFFFFFF)
        str_built = os.path.join(tmp, "str_built.stpqx")
        set_bulk_load_field(index, str_built, 1)
        code, _, err = run(cli, ["query", "--index", str_built, "--keywords",
                                 "kw001;kw002"], tmp)
        check(code == 1 and "bulk-load" in err and "rebuild" in err,
              "query on an index recording STR packing exits 1 asking for "
              "a rebuild (got %d: %s)" % (code, err.strip()))
        point_root_past_segment(index)
        damaged = ["--index", index]
        for argv in (["query"] + damaged + ["--keywords", "kw001;kw002"],
                     ["bench"] + damaged + ["--queries", "8"],
                     ["workload"] + damaged + ["--queries", "8",
                                               "--threads", "1,4"],
                     ["profile"] + damaged + ["--queries", "8"],
                     ["trace"] + damaged + ["--queries", "8", "--trace-out",
                                            os.path.join(tmp, "t.json")]):
            code, _, err = run(cli, argv, tmp)
            check(code == 1 and "Corruption" in err,
                  "%s on a damaged index exits 1 with Corruption "
                  "(got %d: %s)" % (argv[0], code, err.strip()))
        code, _, err = run(cli, ["load", "--verify"] + damaged, tmp)
        check(code == 1 and "out of range" in err,
              "load --verify rejects the damaged index (got %d: %s)" %
              (code, err.strip()))
        code, out, _ = run(cli, ["validate"] + damaged, tmp)
        check(code == 1 and "out of range" in out,
              "validate rejects the damaged index (got %d)" % code)

        # ---- a damaged dataset fails cleanly
        huge = os.path.join(tmp, "huge.stpq")
        with open(huge, "wb") as f:
            # Magic "STPQ", version 1, then an object count near 2^60.
            f.write(struct.pack("<IIQ", 0x53545051, 1, 1 << 60))
        code, _, err = run(cli, ["query", "--data", huge, "--keywords",
                                 "kw001;kw002"], tmp)
        check(code == 1 and "truncated" in err,
              "query on a .stpq claiming 2^60 objects exits 1 "
              "(got %d: %s)" % (code, err.strip()))

        # ---- hostile files fail cleanly under an address-space cap
        universe = os.path.join(tmp, "universe.stpq")
        with open(universe, "wb") as f:
            # No objects; one table: no vocabulary, a universe of 2^32 - 1
            # terms, one feature (id, x, y, score, no terms, empty name).
            f.write(struct.pack("<IIQIIIQIdddII", 0x53545051, 1, 0, 1, 0,
                                0xFFFFFFFF, 1, 0, 0.5, 0.5, 0.5, 0, 0))
        hostile = [
            (["info", "--data", universe], "InvalidArgument"),
            (["query", "--data", universe, "--keywords", "kw001"],
             "InvalidArgument"),
            (["query", "--index", hostile_count, "--keywords",
              "kw001;kw002"], "Corruption"),
            (["query", "--index", hostile_universe, "--keywords",
              "kw001;kw002"], "Corruption"),
        ]
        for argv, error in hostile:
            code, _, err = run(cli, argv, tmp, address_cap=cap)
            check(code == 1 and error in err,
                  "%s on %s exits 1 with %s%s (got %d: %s)" %
                  (argv[0], os.path.basename(argv[2]), error,
                   " under the address-space cap" if cap else "", code,
                   err.strip()))

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

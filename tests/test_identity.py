"""Tests for identity primitives: ids, canonical JSON, content hashing."""

import json
import os
import re
import threading
import time

import numpy as np
import pytest

from repro import identity


class TestNewId:
    def test_prefix(self):
        assert identity.new_id("art").startswith("art-")

    def test_unique(self):
        assert identity.new_id("run") != identity.new_id("run")

    def test_unknown_kind_rejected(self):
        with pytest.raises(identity.IdentityError):
            identity.new_id("nonsense")

    def test_all_known_kinds_work(self):
        for kind in identity.KNOWN_KINDS:
            assert identity.kind_of(identity.new_id(kind)) == kind

    def test_format_is_kind_dash_32_hex(self):
        for kind in identity.KNOWN_KINDS:
            ident = identity.new_id(kind)
            prefix, _, body = ident.partition("-")
            assert prefix == kind
            assert re.fullmatch(r"[0-9a-f]{32}", body)
            assert identity.is_id(ident)

    def test_strictly_increasing_within_a_thread(self):
        ids = [identity.new_id("art") for _ in range(20000)]
        assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_leading_digits_are_the_millisecond_clock(self):
        before = time.time_ns() // 1_000_000
        stamp = int(identity.new_id("run")[4:16], 16)
        after = time.time_ns() // 1_000_000
        assert before <= stamp <= after

    def test_unique_across_threads(self):
        per_thread = 10000
        batches = [[] for _ in range(8)]

        def mint(out):
            out.extend(identity.new_id("exec") for _ in range(per_thread))

        threads = [threading.Thread(target=mint, args=(out,))
                   for out in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        minted = [ident for out in batches for ident in out]
        assert len(set(minted)) == 8 * per_thread
        for out in batches:  # each thread still sees increasing ids
            assert all(a < b for a, b in zip(out, out[1:]))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_unique_across_a_forked_child(self):
        identity.new_id("art")  # the parent has used its clock
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: mint ids, report them, exit at once
            try:
                os.close(read_end)
                payload = "\n".join(identity.new_id("art")
                                    for _ in range(2000))
                with os.fdopen(write_end, "w") as pipe:
                    pipe.write(payload)
            finally:
                os._exit(0)
        os.close(write_end)
        parent = [identity.new_id("art") for _ in range(2000)]
        with os.fdopen(read_end) as pipe:
            child = pipe.read().split("\n")
        os.waitpid(pid, 0)
        assert len(child) == 2000
        assert not set(child) & set(parent)
        # the child reseeded: a different node, not the parent's
        assert {c[-12:] for c in child} != {p[-12:] for p in parent}


class TestKindOf:
    def test_roundtrip(self):
        assert identity.kind_of(identity.new_id("exec")) == "exec"

    def test_malformed_raises(self):
        with pytest.raises(identity.IdentityError):
            identity.kind_of("no-separator-kind!")

    def test_empty_suffix_rejected(self):
        with pytest.raises(identity.IdentityError):
            identity.kind_of("art-")

    def test_is_id(self):
        assert identity.is_id("art-abc")
        assert not identity.is_id("bogus-abc")
        assert not identity.is_id(42)
        assert not identity.is_id("plainstring")


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert (identity.canonical_json({"b": 1, "a": 2})
                == '{"a":2,"b":1}')

    def test_no_whitespace(self):
        assert " " not in identity.canonical_json({"a": [1, 2, 3]})

    def test_numpy_array_serializes(self):
        text = identity.canonical_json({"x": np.array([1, 2])})
        assert text == '{"x":[1,2]}'

    def test_structural_equality_gives_equal_text(self):
        first = {"outer": {"z": 1, "a": [True, None]}}
        second = {"outer": {"a": [True, None], "z": 1}}
        assert (identity.canonical_json(first)
                == identity.canonical_json(second))

    @pytest.mark.parametrize("value", [
        {"z": {"y": [3, {"b": 2, "a": 1}], "x": None}, "a": [True, False]},
        {"naïve": "café ☕", "日本": ["ß", "\u0000", "\U0001f600"]},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
        (1, ("nested", (2.5,)), {"t": (None,)}),
        {"arr": np.arange(6).reshape(2, 3), "scalar": np.float32(1.5),
         "int": np.int64(7), "flag": np.bool_(True)},
        {"fallback": complex(1, 2), "": 0},
        "plain string",
        42,
    ])
    def test_matches_json_dumps_byte_for_byte(self, value):
        expected = json.dumps(value, sort_keys=True, separators=(",", ":"),
                              default=identity._json_fallback)
        assert identity.canonical_json(value) == expected


class TestHashing:
    def test_bytes_hash_stable(self):
        assert identity.content_hash(b"x") == identity.content_hash(b"x")

    def test_hash_value_dict_order_invariant(self):
        assert (identity.hash_value({"a": 1, "b": 2})
                == identity.hash_value({"b": 2, "a": 1}))

    def test_hash_value_distinguishes_values(self):
        assert identity.hash_value([1, 2]) != identity.hash_value([2, 1])

    def test_bytes_and_json_namespaces_disjoint(self):
        # b"1" must not collide with the integer 1
        assert identity.hash_value(b"1") != identity.hash_value(1)

    def test_numpy_hash_matches_list_content(self):
        assert (identity.hash_value(np.array([1.5, 2.5]))
                == identity.hash_value([1.5, 2.5]))

    def test_hash_is_hex_sha256(self):
        digest = identity.hash_value("hello")
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def db_file(tmp_path):
    path = tmp_path / "db.fa"
    assert main(["make-db", "--seed", "3", "--sequences", "10",
                 "--mean-length", "3000", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def query_file(tmp_path, db_file):
    path = tmp_path / "q.fa"
    assert main([
        "make-query", "--db", str(db_file), "--seed", "4", "--length", "20000",
        "--homologies", "2", "--homology-length", "500", "--out", str(path),
    ]) == 0
    return path


class TestMakeCommands:
    def test_make_db_writes_fasta(self, db_file, capsys):
        from repro.sequence.fasta import read_fasta

        records = read_fasta(db_file)
        assert len(records) == 10

    def test_make_query_reports_ground_truth(self, tmp_path, db_file, capsys):
        out = tmp_path / "q2.fa"
        main(["make-query", "--db", str(db_file), "--length", "15000",
              "--homologies", "1", "--homology-length", "400", "--out", str(out)])
        captured = capsys.readouterr().out
        assert "planted" in captured
        assert out.exists()


class TestSearch:
    def test_serial_tabular(self, db_file, query_file, capsys):
        assert main(["search", "--db", str(db_file), "--query", str(query_file),
                     "--mode", "serial"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.strip()]
        assert rows, "planted homologies must produce alignments"
        assert all(len(r.split("\t")) == 12 for r in rows)

    def test_orion_matches_serial(self, db_file, query_file, capsys):
        main(["search", "--db", str(db_file), "--query", str(query_file),
              "--mode", "serial"])
        serial_out = set(capsys.readouterr().out.splitlines())
        main(["search", "--db", str(db_file), "--query", str(query_file),
              "--mode", "orion", "--fragment-length", "6000", "--shards", "4"])
        orion_out = set(capsys.readouterr().out.splitlines())
        assert serial_out == orion_out

    def test_mpiblast_mode(self, db_file, query_file, capsys):
        assert main(["search", "--db", str(db_file), "--query", str(query_file),
                     "--mode", "mpiblast", "--shards", "4"]) == 0
        assert capsys.readouterr().out.strip()

    def test_pairwise_output(self, db_file, query_file, capsys):
        main(["search", "--db", str(db_file), "--query", str(query_file),
              "--mode", "serial", "--outfmt", "pairwise", "--max-alignments", "1"])
        out = capsys.readouterr().out
        assert "Query" in out and "Sbjct" in out and "Score =" in out

    def test_flags_accepted(self, db_file, query_file, capsys):
        assert main(["search", "--db", str(db_file), "--query", str(query_file),
                     "--mode", "serial", "--dust", "--two-hit",
                     "--evalue", "1e-5", "--task", "megablast"]) == 0

    def test_empty_query_errors(self, tmp_path, db_file, capsys):
        empty = tmp_path / "empty.fa"
        empty.write_text("")
        assert main(["search", "--db", str(db_file), "--query", str(empty)]) == 2

    def test_prune_threshold_zero_matches_unpruned(self, db_file, query_file, capsys):
        """--prune-threshold 0 probes but keeps everything: identical rows."""
        main(["search", "--db", str(db_file), "--query", str(query_file),
              "--mode", "orion", "--fragment-length", "6000", "--shards", "4"])
        base = capsys.readouterr().out
        assert main(["search", "--db", str(db_file), "--query", str(query_file),
                     "--mode", "orion", "--fragment-length", "6000",
                     "--shards", "4", "--prune-threshold", "0"]) == 0
        assert capsys.readouterr().out == base

    def test_no_prune_overrides_threshold(self, db_file, query_file, capsys):
        main(["search", "--db", str(db_file), "--query", str(query_file),
              "--mode", "orion", "--fragment-length", "6000", "--shards", "4"])
        base = capsys.readouterr().out
        assert main(["search", "--db", str(db_file), "--query", str(query_file),
                     "--mode", "orion", "--fragment-length", "6000",
                     "--shards", "4", "--prune-threshold", "0.9",
                     "--no-prune"]) == 0
        assert capsys.readouterr().out == base


class TestServe:
    def test_pruning_summary_sums_the_per_query_counts(
        self, tmp_path, db_file, query_file, capsys
    ):
        from repro.core.orion import OrionSearch
        from repro.sequence.fasta import read_fasta, write_fasta
        from repro.sequence.records import Database

        (query,) = read_fasta(query_file)
        queries = [
            query.slice(0, 12000, seq_id="qa"),
            query.slice(8000, 20000, seq_id="qb"),
        ]
        queries_file = tmp_path / "two.fa"
        write_fasta(queries, queries_file)
        knobs = ["--shards", "4", "--fragment-length", "6000", "--prune-threshold", "0.02"]
        assert main(["serve", "--db", str(db_file), "--query", str(queries_file),
                     "--executor", "serial", *knobs]) == 0
        summary = capsys.readouterr().err.splitlines()[-1]

        with OrionSearch(
            database=Database(read_fasta(db_file), name="db"),
            num_shards=4, fragment_length=6000, prune_threshold=0.02,
        ) as search:
            results = [search.run(q) for q in queries]
        searched = sum(r.shards_searched for r in results)
        visits = searched + sum(r.shards_pruned for r in results)
        skipped = sum(r.pruned_map_tasks for r in results)
        assert skipped > 0
        assert summary == (
            f"pruning (threshold 0.02): searched {searched}/{visits} shard "
            f"visits, skipped {skipped} map tasks"
        )


def _bad_input(kind, tmp_path, db_file, query_file):
    """(db, query) paths where exactly one input is unusable in ``kind``'s way."""
    db, query = str(db_file), str(query_file)
    if kind == "headerless_fasta":
        query = str(tmp_path / "headerless.fa")
        (tmp_path / "headerless.fa").write_text("ACGTACGT\n>q1\nACGTACGT\n")
    elif kind == "zero_length_query":
        query = str(tmp_path / "zero.fa")
        (tmp_path / "zero.fa").write_text(">empty\n>q1\nACGTACGTACGT\n")
    elif kind == "duplicate_db_ids":
        db = str(tmp_path / "dup.fa")
        text = db_file.read_text()
        first_record = text.split(">")[1]
        (tmp_path / "dup.fa").write_text(text + ">" + first_record)
    elif kind == "missing_query":
        query = str(tmp_path / "absent.fa")
    elif kind == "missing_db":
        db = str(tmp_path / "absent.fa")
    return db, query


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestBadInput:
    """Unusable input files and option values end in one ``error:`` line, exit 2."""

    @pytest.mark.parametrize("command", ["search", "serve"])
    @pytest.mark.parametrize(
        "kind",
        ["headerless_fasta", "zero_length_query", "duplicate_db_ids",
         "missing_query", "missing_db"],
    )
    def test_search_commands(self, kind, command, tmp_path, db_file, query_file, capsys):
        db, query = _bad_input(kind, tmp_path, db_file, query_file)
        capsys.readouterr()
        assert main([command, "--db", db, "--query", query]) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "command, option",
        [
            ("search", ["--executor", "processes", "--workers", "0"]),
            ("search", ["--shards", "0"]),
            ("search", ["--retries", "0"]),
            ("search", ["--fragment-length", "0"]),
            ("search", ["--task-timeout", "-1"]),
            ("serve", ["--workers", "0"]),
            ("serve", ["--shards", "0"]),
            ("serve", ["--max-inflight", "0"]),
            ("serve", ["--breaker-failures", "0"]),
            ("serve", ["--breaker-reset-seconds", "-1"]),
            ("serve", ["--breaker-probes", "0"]),
            ("search", ["--evalue", "0"]),
            ("search", ["--evalue", "-1"]),
            ("search", ["--max-alignments", "-1"]),
            ("search", ["--max-alignments", "0"]),
            ("serve", ["--max-alignments", "-1"]),
            ("search", ["--evalue", "inf"]),
            ("search", ["--mode", "serial", "--evalue", "inf"]),
            ("search", ["--mode", "mpiblast", "--evalue", "inf"]),
            ("serve", ["--evalue", "inf"]),
            ("search", ["--mode", "mpiblast", "--shards", "0"]),
            ("search", ["--mode", "mpiblast", "--shards", "-3"]),
        ],
    )
    def test_bad_option_value(self, command, option, db_file, query_file, capsys):
        capsys.readouterr()
        argv = [command, "--db", str(db_file), "--query", str(query_file), *option]
        assert main(argv) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("kind", ["duplicate_db_ids", "missing_db"])
    def test_make_query(self, kind, tmp_path, db_file, query_file, capsys):
        db, _ = _bad_input(kind, tmp_path, db_file, query_file)
        capsys.readouterr()
        out = tmp_path / "q_out.fa"
        assert main(["make-query", "--db", db, "--out", str(out)]) == 2
        _assert_one_error_line(capsys)
        assert not out.exists()

    def test_headerless_database(self, tmp_path, query_file, capsys):
        db = tmp_path / "headerless_db.fa"
        db.write_text("ACGT\n")
        assert main(["search", "--db", str(db), "--query", str(query_file)]) == 2
        _assert_one_error_line(capsys)


class TestSharedOptions:
    """`search` and `serve` declare their common options once."""

    def test_shared_flags_parse_to_the_same_defaults(self):
        parser = build_parser()
        required = ["--db", "d.fa", "--query", "q.fa"]
        search = vars(parser.parse_args(["search", *required]))
        serve = vars(parser.parse_args(["serve", *required]))
        shared = [
            "db", "query", "shards", "fragment_length", "strands", "workers",
            "retries", "prune_threshold", "no_prune", "evalue", "task",
            "two_hit", "dust", "max_alignments",
        ]
        assert {k: search[k] for k in shared} == {k: serve[k] for k in shared}
        assert (search["executor"], serve["executor"]) == ("serial", "processes")


class TestOverlap:
    def test_prints_equation_one(self, capsys):
        assert main(["overlap", "--query-length", "1000000",
                     "--db-length", "122653977", "--db-sequences", "1170"]) == 0
        out = capsys.readouterr().out
        assert "lambda=1.3741" in out
        assert "K=0.7106" in out
        assert "overlap L=" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestPlane:
    @pytest.fixture
    def shm(self):
        from repro.mapreduce import shm as shm_mod

        if not shm_mod.HAVE_SHARED_MEMORY:
            pytest.skip("platform lacks POSIX shared memory")
        shm_mod.reap_orphan_planes()  # leftovers from earlier crashes/tests
        yield shm_mod
        shm_mod.reap_orphan_planes()

    def test_ls_empty_and_reap_nothing(self, shm, capsys):
        assert main(["plane", "ls"]) == 0
        assert "no shared database planes" in capsys.readouterr().out
        assert main(["plane", "reap"]) == 0
        assert "nothing to reap" in capsys.readouterr().out

    def test_ls_shows_held_plane_and_reap_skips_it(self, shm, capsys):
        from repro.sequence.generator import make_database

        db = make_database(61, num_sequences=3, mean_length=300, name="clidb")
        with shm.PlaneRegistry.attach_or_create(db, 9):
            assert main(["plane", "ls"]) == 0
            out = capsys.readouterr().out
            assert "clidb" in out
            assert "healthy" in out
            assert "holders=held" in out
            assert main(["plane", "reap"]) == 0
            assert "nothing to reap" in capsys.readouterr().out

    def test_reap_reclaims_orphan(self, shm, capsys):
        import os
        import subprocess
        import sys

        script = (
            "from repro.mapreduce.shm import PlaneRegistry\n"
            "from repro.sequence.generator import make_database\n"
            "db = make_database(61, num_sequences=3, mean_length=300)\n"
            "PlaneRegistry.attach_or_create(db, 9)\n"
            "import os; os._exit(9)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(os.path.dirname(shm.__file__), "..", "..")
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=False)
        assert main(["plane", "ls"]) == 0
        assert "reapable" in capsys.readouterr().out
        assert main(["plane", "reap"]) == 0
        out = capsys.readouterr().out
        assert "reaped" in out and "orionplane_" in out
        assert main(["plane", "ls"]) == 0
        assert "no shared database planes" in capsys.readouterr().out


class TestSigterm:
    """A plain ``kill`` (SIGTERM) of a process-backed ``search`` or
    ``serve`` unwinds like ``sys.exit(143)``: the driver releases its plane
    lease, so nothing is left for ``plane reap``."""

    def test_deferred_sigterm_waits_for_a_safe_point(self):
        import signal

        from repro.cli import _Sigterm

        handler = _Sigterm()
        with pytest.raises(SystemExit) as exc:
            handler(signal.SIGTERM, None)
        assert exc.value.code == 143
        handler.deferred = True
        handler(signal.SIGTERM, None)  # recorded, not raised
        handler.deferred = False
        with pytest.raises(SystemExit) as exc:
            handler.check()
        assert exc.value.code == 143

    def test_main_restores_the_sigterm_handler(self):
        import signal

        before = signal.getsignal(signal.SIGTERM)
        assert main(["overlap", "--query-length", "1000",
                     "--db-length", "100000", "--db-sequences", "10"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_forked_child_gets_the_default_action(self):
        """Pool workers forked by the driver must die on SIGTERM, which is
        how ``ProcessPoolExecutor`` stops them."""
        import os
        import signal

        from repro.cli import _Sigterm

        handler = _Sigterm()
        previous = signal.signal(signal.SIGTERM, handler)
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:  # child: report its disposition, then leave
                try:
                    default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
                    os.write(write_fd, b"1" if default else b"0")
                finally:
                    os._exit(0)
            assert os.read(read_fd, 1) == b"1"
            os.waitpid(pid, 0)
            assert signal.getsignal(signal.SIGTERM) is handler  # the parent's stays
        finally:
            signal.signal(signal.SIGTERM, previous)
            os.close(read_fd)
            os.close(write_fd)

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_sigterm_releases_the_plane(self, command, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        from repro.mapreduce import shm
        from repro.sequence.fasta import write_fasta
        from repro.sequence.generator import (
            HomologySpec,
            make_database,
            make_query_with_homologies,
        )
        from tests.mapreduce.test_shm import _group_alive, _wait_for

        if not shm.HAVE_SHARED_MEMORY:  # pragma: no cover - platform
            pytest.skip("no POSIX shared memory")
        db = make_database(71, num_sequences=5, mean_length=400, name="db")
        write_fasta(db, tmp_path / "db.fa")
        # Enough queries that the run is still going when the signal lands.
        queries = [
            make_query_with_homologies(
                seed, 8_000, db, [HomologySpec(length=120)], seq_id=f"q{seed}"
            )[0]
            for seed in range(200)
        ]
        write_fasta(queries, tmp_path / "q.fa")

        def registries():
            return {
                n for n in os.listdir("/dev/shm")
                if n.startswith(shm.PLANE_PREFIX) and n.endswith("_reg")
            }

        before = registries()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(os.path.dirname(shm.__file__), "..", "..")
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", command,
                "--db", str(tmp_path / "db.fa"), "--query", str(tmp_path / "q.fa"),
                "--executor", "processes", "--workers", "2",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,  # its own group, so the check below is its alone
        )
        try:
            assert _wait_for(lambda: registries() - before), "no plane was published"
            (registry,) = registries() - before
            plane = registry[: -len("reg")]
            os.kill(proc.pid, signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 143, err
            assert "Traceback" not in err, err
            assert not [n for n in os.listdir("/dev/shm") if n.startswith(plane)]
            assert _wait_for(lambda: not _group_alive(proc.pid), timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            shm.reap_orphan_planes()

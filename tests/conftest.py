import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own
    the session; library code never calls ray.init/shutdown)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture
def labelled_rows(tmp_path, monkeypatch):
    """Patch ``label.label_batch`` with a row counter; returns a function
    giving the number of rows labelled so far.  The counts go through a
    file because the batches run in Ray worker processes."""
    from polylabel_rs_ray.stages import label

    counts = tmp_path / "label_rows.txt"
    counts.touch()
    real = label.label_batch

    def counting(batch):
        with open(counts, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return real(batch)

    monkeypatch.setattr(label, "label_batch", counting)
    return lambda: sum(int(n) for n in counts.read_text().split())

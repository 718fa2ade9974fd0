import io
import json
import os

import numpy as np
import pytest

from myograsp import datapipe, synthgen
from myograsp.errors import ConfigError
from myograsp.synthgen import (SynthConfig, angle_map, generate, generate_session,
                               latents_to_angles, linear_baseline_nrmse,
                               subject_mixing, write_dataset)

SMALL = dict(n_subjects=2, sessions_per_subject=2, session_seconds=18.0)


class TestConfig:
    def test_mode_sets_angle_count(self):
        assert SynthConfig(mode="immobile").n_angles == 15
        assert SynthConfig(mode="mobile").n_angles == 18

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            SynthConfig(mode="wrist")

    def test_negative_perturbation(self):
        with pytest.raises(ConfigError):
            SynthConfig(subject_mixing_perturbation=-0.1)


class TestAngleMap:
    def test_fixed_across_dataset_seeds(self):
        a = angle_map("immobile")
        b = angle_map("immobile")
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_bounded_output(self):
        rng = np.random.default_rng(0)
        latents = rng.uniform(0, 1, size=(1000, synthgen.N_LATENTS))
        for mode, n in (("immobile", 15), ("mobile", 18)):
            y = latents_to_angles(latents, mode)
            assert y.shape == (1000, n)
            _, _, offset, amplitude = angle_map(mode)
            assert np.all(y > offset - amplitude)
            assert np.all(y < offset + amplitude)


class TestGenerateSession:
    def test_determinism(self):
        cfg = SynthConfig(seed=5, **SMALL)
        e1, a1, l1 = generate_session(cfg, 1, 0)
        e2, a2, l2 = generate_session(cfg, 1, 0)
        np.testing.assert_array_equal(e1.frames, e2.frames)
        np.testing.assert_array_equal(e1.timestamps_ms, e2.timestamps_ms)
        np.testing.assert_array_equal(a1.frames, a2.frames)
        np.testing.assert_array_equal(l1, l2)

    def test_no_domain_shift_limit(self):
        # zero noise + zero perturbation -> subjects are bit-identical
        cfg = SynthConfig(seed=3, noise_std=0.0, subject_mixing_perturbation=0.0,
                          **SMALL)
        e0, a0, _ = generate_session(cfg, 0, 1)
        e1, a1, _ = generate_session(cfg, 1, 1)
        np.testing.assert_array_equal(e0.frames, e1.frames)
        np.testing.assert_array_equal(e0.timestamps_ms, e1.timestamps_ms)
        np.testing.assert_array_equal(a0.frames, a1.frames)

    def test_subjects_differ_with_perturbation(self):
        cfg = SynthConfig(seed=3, noise_std=0.0, subject_mixing_perturbation=0.3,
                          **SMALL)
        e0, _, _ = generate_session(cfg, 0, 1)
        e1, _, _ = generate_session(cfg, 1, 1)
        assert not np.array_equal(e0.frames, e1.frames)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_streams_validate(self, seed):
        cfg = SynthConfig(seed=seed, **SMALL)
        emg, ang, latents = generate_session(cfg, 0, 0)
        emg.validate()
        ang.validate()
        assert np.all(np.abs(emg.frames) <= 128.0)
        assert np.all(np.diff(emg.timestamps_ms) > 0)
        assert np.all(np.diff(ang.timestamps_ms) > 0)
        assert latents.shape == (len(emg.timestamps_ms), synthgen.N_LATENTS)
        assert np.all((latents >= 0) & (latents <= 1))

    def test_angle_trajectories_continuous(self):
        # max per-frame step bounded: the latent band is ~0.3 Hz, so angle
        # velocity stays far below 8 deg per 10 ms frame
        cfg = SynthConfig(seed=7, **SMALL)
        _, ang, _ = generate_session(cfg, 0, 0)
        assert np.abs(np.diff(ang.frames, axis=0)).max() < 8.0

    def test_mixing_perturbation_scales_subject_distance(self):
        base = subject_mixing(SynthConfig(subject_mixing_perturbation=0.0, seed=0), 3)
        np.testing.assert_array_equal(
            base, subject_mixing(SynthConfig(subject_mixing_perturbation=0.0, seed=0), 4))
        distances = []
        for rho in (0.1, 0.25, 0.5):
            cfg = SynthConfig(subject_mixing_perturbation=rho, seed=0)
            d = np.linalg.norm(subject_mixing(cfg, 3) - subject_mixing(cfg, 4))
            distances.append(d)
        assert distances[0] < distances[1] < distances[2]

    def test_covariance_distance_grows_with_perturbation(self):
        means = []
        for rho in (0.0, 0.2, 0.5):
            cfg = SynthConfig(seed=0, subject_mixing_perturbation=rho,
                              n_subjects=3, sessions_per_subject=1,
                              session_seconds=30.0)
            covs = []
            for subj in range(3):
                emg, _, _ = generate_session(cfg, subj, 0)
                filtered = datapipe.lowpass(emg.frames, cfg.emg_rate, 10.0)
                covs.append(np.cov(filtered.T))
            dists = [np.linalg.norm(covs[i] - covs[j])
                     for i in range(3) for j in range(i + 1, 3)]
            means.append(np.mean(dists))
        assert means[0] < means[1] < means[2]


def test_linear_baseline_is_learnable():
    # the frozen learnability threshold for the generated data
    cfg = SynthConfig(seed=0, n_subjects=1, sessions_per_subject=1)
    emg, ang, _ = generate_session(cfg, 0, 0)
    floor = linear_baseline_nrmse(emg, ang)
    assert floor < 0.25


class TestWriteDataset:
    @pytest.mark.parametrize("mode, n_angles", [("immobile", 15), ("mobile", 18)],
                             ids=["immobile", "mobile"])
    def test_files_and_manifest(self, tmp_path, mode, n_angles):
        cfg = SynthConfig(seed=1, mode=mode, **SMALL)
        manifest = write_dataset(cfg, tmp_path)
        # 2 subjects x 2 sessions x 2 streams + 2 latent files + manifest
        names = sorted(os.listdir(tmp_path))
        assert len([n for n in names if n.endswith("_emg.csv")]) == 4
        assert len([n for n in names if n.endswith("_angles.csv")]) == 4
        assert len([n for n in names if n.endswith("_latents.csv")]) == 2
        assert "manifest.json" in names
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["mode"] == mode
        assert on_disk["n_angles"] == n_angles
        assert 0 < on_disk["linear_baseline_nrmse"] < 1
        assert len(on_disk["recordings"]) == 4
        assert manifest["recordings"] == on_disk["recordings"]
        # every CSV holds the bytes np.savetxt writes for the in-memory arrays
        expected = {}
        for emg, ang, latents in generate(cfg):
            tag = f"s{emg.subject_id}_r{emg.session_id}"
            expected[f"{tag}_emg.csv"] = (emg.timestamps_ms, emg.frames, "ch")
            expected[f"{tag}_angles.csv"] = (ang.timestamps_ms, ang.frames, "angle")
            if emg.subject_id == 0:
                expected[f"r{emg.session_id}_latents.csv"] = (emg.timestamps_ms, latents,
                                                              "latent")
        assert sorted(expected) == [n for n in names if n.endswith(".csv")]
        for name, (ts, frames, prefix) in expected.items():
            header = "timestamp_ms," + ",".join(f"{prefix}{i}"
                                                for i in range(frames.shape[1]))
            ref = io.BytesIO()
            np.savetxt(ref, np.column_stack([ts, frames]), fmt="%.6f", delimiter=",",
                       header=header, comments="")
            assert (tmp_path / name).read_bytes() == ref.getvalue(), name

    def test_byte_identical_rerun(self, tmp_path):
        cfg = SynthConfig(seed=2, n_subjects=1, sessions_per_subject=1,
                          session_seconds=14.0)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_dataset(cfg, d1)
        write_dataset(cfg, d2)
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    @pytest.mark.parametrize("mode", ["immobile", "mobile"])
    @pytest.mark.parametrize("domain_gap", [True, False], ids=["gap", "no-gap"])
    def test_generate_equals_generate_session(self, mode, domain_gap):
        # generate() computes each session's shared signals once for all
        # subjects; its items must not differ by a bit from generate_session's
        extra = {} if domain_gap else dict(noise_std=0.0, subject_mixing_perturbation=0.0)
        cfg = SynthConfig(seed=6, mode=mode, n_subjects=3, sessions_per_subject=2,
                          session_seconds=12.0, **extra)
        items = list(generate(cfg))
        order = [(s, r) for s in range(cfg.n_subjects) for r in range(cfg.sessions_per_subject)]
        assert [(e.subject_id, e.session_id) for e, _, _ in items] == order
        for (emg, ang, latents), (subject, session) in zip(items, order):
            ref_emg, ref_ang, ref_latents = generate_session(cfg, subject, session)
            for got, ref in ((emg, ref_emg), (ang, ref_ang)):
                assert (got.subject_id, got.session_id, got.kind, got.nominal_rate) == (
                    ref.subject_id, ref.session_id, ref.kind, ref.nominal_rate)
                for a, b in ((got.timestamps_ms, ref.timestamps_ms), (got.frames, ref.frames)):
                    assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())
            assert (latents.shape, latents.tobytes()) == (ref_latents.shape,
                                                          ref_latents.tobytes())

    def test_generate_yields_all_sessions(self):
        cfg = SynthConfig(seed=0, **SMALL)
        out = list(generate(cfg))
        assert len(out) == 4
        keys = {(e.subject_id, e.session_id) for e, _, _ in out}
        assert keys == {(0, 0), (0, 1), (1, 0), (1, 1)}

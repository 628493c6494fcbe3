"""Lazily compiled C micro-kernel for the calendar inventory engine.

The event-calendar engine (``engine="calendar"``) settles whole rounds —
frame draws, the Q-algorithm walk, dedup, cumulative time assignment — in
one C call per round instead of Python-per-slot work.  The C source below
is a transliteration of the sequential slot walk in
:meth:`InventoryEngine._run_round_reference` specialised to Q-adaptive and
FixedQ, so for those strategies the slot outcomes, read times and the
generator state afterwards are bit-for-bit identical to the reference:

- draws come straight from numpy's bit generator through its C interface
  (``bitgen_t``, obtained from ``Generator.bit_generator.ctypes``): each
  frame lane is ``next_uint32() >> (32 - q)``, which is what
  ``Generator.integers(0, 2**q, size)`` computes (Lemire's bounded draw is
  rejection-free for power-of-two ranges), and a frame of length one draws
  nothing, like ``integers(0, 1)``;
- each singleton's link-loss draw is one ``next_double()``, exactly
  ``Generator.random()``;
- because the calls go through the generator's own functions, numpy's
  internal state — including the 32-bit lane it buffers across calls — ends
  up where the reference walk leaves it, for every numpy bit generator;
- the Q-walk uses the same double arithmetic (``qfp ± c`` with [0, 15]
  clamps) and C ``rint`` — round-half-to-even, exactly Python's
  ``round(float)`` — for the QueryAdjust decision;
- simulated time accrues through the same sequence of double additions, so
  every read timestamp matches the sequential walk bit for bit.

The kernel is OPTIONAL.  It is compiled on first use with the system C
compiler into a cache directory and loaded via :mod:`ctypes`; when no
compiler is available, the calendar engine falls back to the reference
walk, which is always correct — only slower.  Nothing is downloaded and
no third-party package is required.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

__all__ = ["load_kernel", "kernel_source_hash", "MAX_FRAME"]

#: Largest Gen2 frame (Q = 15).  Scratch buffers are sized to this.
MAX_FRAME = 1 << 15

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* numpy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* One inventory round, settled slot by slot.
 *
 * Mirrors the reference engine's sequential walk for QAdaptive/FixedQ
 * exactly: same generator calls in the same order, same double
 * arithmetic, same truncation checks.
 *
 * dpar: [t_start, deadline, t_empty, t_single, t_collision, t_adjust,
 *        t_query, c, p_loss]
 * ipar: [n, strat (0 = FixedQ, 1 = QAdaptive), q0, with_replacement,
 *        max_slots]
 * out_i: [n_empty, n_single, n_collision, n_duplicate, n_adjusts,
 *         n_frames, truncated, n_reads, n_slots, n_lost]
 * out_d: [t_end]
 */
void repro_run_round(
    const double *dpar,
    const int64_t *ipar,
    bitgen_t *bitgen,
    uint8_t *seen,
    int32_t *counts,
    int32_t *owner,
    int32_t *unseen,
    int64_t *out_i,
    double *out_d,
    int64_t *read_pos,
    int64_t *read_slot,
    double *read_time)
{
    const double deadline = dpar[1];
    const double t_empty = dpar[2];
    const double t_single = dpar[3];
    const double t_collision = dpar[4];
    const double t_adjust = dpar[5];
    const double t_query = dpar[6];
    const double c = dpar[7];
    const double p_loss = dpar[8];
    const int64_t n = ipar[0];
    const int strat = (int)ipar[1];
    const int with_replacement = (int)ipar[3];
    const int64_t max_slots = ipar[4];
    const int has_loss = p_loss > 0.0;
    void *const bg_state = bitgen->state;
    uint32_t (*const next_uint32)(void *) = bitgen->next_uint32;
    double (*const next_double)(void *) = bitgen->next_double;

    double t = dpar[0];
    int q = (int)ipar[2];
    double qfp = (double)q;
    int64_t frame_length = (int64_t)1 << q;

    int64_t n_empty = 0, n_single = 0, n_collision = 0;
    int64_t n_duplicate = 0, n_adjusts = 0, n_frames = 0;
    int64_t n_seen = 0, n_reads = 0, slot_counter = 0;
    int64_t n_lost = 0;
    int truncated = 0;

    for (int64_t i = 0; i < n; i++) seen[i] = 0;

    while (n_seen < n) {
        n_frames++;
        int64_t size;
        if (with_replacement) {
            size = n;
        } else {
            size = 0;
            for (int64_t i = 0; i < n; i++)
                if (!seen[i]) unseen[size++] = (int32_t)i;
        }

        if (frame_length > 1) {
            const int shift = 32 - q;
            for (int64_t i = 0; i < frame_length; i++) counts[i] = 0;
            for (int64_t i = 0; i < size; i++) {
                const int32_t d = (int32_t)(next_uint32(bg_state) >> shift);
                counts[d]++;
                owner[d] = (int32_t)i;
            }
        } else {
            /* integers(0, 1, ...) draws nothing. */
            counts[0] = (int32_t)size;
            owner[0] = 0;
        }

        int exit_cut = 0;
        for (int64_t slot = 0; slot < frame_length; slot++) {
            if (t >= deadline || slot_counter >= max_slots) {
                truncated = 1;
                break;
            }
            const int32_t occupancy = counts[slot];
            if (occupancy == 1) {
                t += t_single;
                n_single++;
                slot_counter++;
                if (has_loss && next_double(bg_state) < p_loss) {
                    n_lost++;
                    continue;
                }
                const int64_t j = owner[slot];
                const int64_t p_i = with_replacement ? j : (int64_t)unseen[j];
                if (seen[p_i]) {
                    n_duplicate++;
                    continue;
                }
                seen[p_i] = 1;
                n_seen++;
                read_pos[n_reads] = p_i;
                read_slot[n_reads] = slot_counter - 1;
                read_time[n_reads] = t;
                n_reads++;
                if (n_seen >= n) break;
                continue;
            }
            if (occupancy == 0) {
                t += t_empty;
                n_empty++;
                if (strat == 1) {
                    qfp -= c;
                    if (qfp < 0.0) qfp = 0.0;
                }
            } else {
                t += t_collision;
                n_collision++;
                if (strat == 1) {
                    qfp += c;
                    if (qfp > 15.0) qfp = 15.0;
                }
            }
            slot_counter++;
            if (strat == 1) {
                const int new_q = (int)rint(qfp);
                if (new_q != q) {
                    q = new_q;
                    exit_cut = 1;
                    break;
                }
            }
        }

        if (exit_cut) {
            t += t_adjust;
            n_adjusts++;
            frame_length = (int64_t)1 << q;
        }
        if (truncated) break;
        if (n_seen >= n) break;
        if (!exit_cut) t += t_query;
    }

    out_i[0] = n_empty;
    out_i[1] = n_single;
    out_i[2] = n_collision;
    out_i[3] = n_duplicate;
    out_i[4] = n_adjusts;
    out_i[5] = n_frames;
    out_i[6] = truncated;
    out_i[7] = n_reads;
    out_i[8] = slot_counter;
    out_i[9] = n_lost;
    out_d[0] = t;
}
"""


def kernel_source_hash() -> str:
    """Hash of the embedded C source (keys the build cache)."""
    return hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]


def _build_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_BUILD_DIR")
    if configured:
        return configured
    # Keep build artefacts next to the package's repository checkout when
    # writable, else fall back to a per-user temp dir.
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(repo, "build", "ckernel")
    try:
        os.makedirs(candidate, exist_ok=True)
        return candidate
    except OSError:
        return os.path.join(tempfile.gettempdir(), "repro-ckernel")


def _compile(so_path: str) -> bool:
    """Compile the embedded source to ``so_path``; False on any failure."""
    build = os.path.dirname(so_path)
    try:
        os.makedirs(build, exist_ok=True)
    except OSError:
        return False
    c_path = so_path[:-3] + ".c"
    tmp_so = so_path + f".tmp{os.getpid()}"
    try:
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(_C_SOURCE)
        for compiler in ("cc", "gcc", "clang"):
            try:
                result = subprocess.run(
                    [
                        compiler,
                        "-O2",
                        "-shared",
                        "-fPIC",
                        "-o",
                        tmp_so,
                        c_path,
                        "-lm",
                    ],
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if result.returncode == 0:
                os.replace(tmp_so, so_path)  # atomic: concurrent builds race safely
                return True
        return False
    except OSError:
        return False
    finally:
        if os.path.exists(tmp_so):
            try:
                os.unlink(tmp_so)
            except OSError:
                pass


_LOADED: Optional[ctypes.CDLL] = None
_LOAD_ATTEMPTED = False


def load_kernel() -> Optional[ctypes.CDLL]:
    """Compile (once) and load the C kernel; ``None`` when unavailable.

    The build is cached per source hash, so subsequent runs only pay a
    ``dlopen``.  To run the reference walk instead, set
    ``REPRO_REFERENCE=1`` (:mod:`repro.runtime.oracle`).
    """
    global _LOADED, _LOAD_ATTEMPTED
    if _LOAD_ATTEMPTED:
        return _LOADED
    _LOAD_ATTEMPTED = True
    so_path = os.path.join(
        _build_dir(), f"repro_round_{kernel_source_hash()}.so"
    )
    try:
        if not os.path.exists(so_path) and not _compile(so_path):
            return None
        lib = ctypes.CDLL(so_path)
    except OSError:
        return None
    fn = lib.repro_run_round
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p,  # dpar
        ctypes.c_void_p,  # ipar
        ctypes.c_void_p,  # bitgen
        ctypes.c_void_p,  # seen
        ctypes.c_void_p,  # counts
        ctypes.c_void_p,  # owner
        ctypes.c_void_p,  # unseen
        ctypes.c_void_p,  # out_i
        ctypes.c_void_p,  # out_d
        ctypes.c_void_p,  # read_pos
        ctypes.c_void_p,  # read_slot
        ctypes.c_void_p,  # read_time
    ]
    _LOADED = lib
    return _LOADED

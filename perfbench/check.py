"""Oracle checks of served answers, run outside the timed windows.

Every answer is compared, ids and score bytes, with
:func:`repro.analytics.oracle.oracle_top_k`.  A full scan per answer costs
about thirty reads, so the oracle runs over only the rows that can still
beat the answer's own k-th score, ``{r : matrix[r] @ w <= kth + EPS}``,
picked by one BLAS product per chunk of answers.  BLAS scores differ from
the kernels' score bits by far less than ``EPS``, so the rows picked
include every row whose exact score is at most ``kth``.  If the answer is
right, they include the true top-k and the oracle returns exactly it.  If
the oracle's answer over them matches the served one, the served scores are
the exact scores of the served ids and no row left out can beat them, so
the served answer is right.  A match therefore holds exactly when the
answer is correct.
"""

from __future__ import annotations

import numpy as np

#: Margin between the BLAS scores used to pick rows and the exact scores.
EPS = 1e-9

#: Answers whose candidate rows are picked by one product (a chunk of
#: ``CHUNK x n`` scores).
CHUNK = 16


class Oracle:
    """Checks answers served from one state of the data.

    ``row_ids`` maps matrix rows to the ids the program serves (ascending);
    by default row ``r`` has id ``r``.
    """

    def __init__(self, matrix: np.ndarray, row_ids: np.ndarray | None = None) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.row_ids = row_ids

    def rows_at_most(self, weights: np.ndarray, kth: np.ndarray) -> list[np.ndarray]:
        """Per weight row ``i``: the ascending rows whose BLAS score under
        ``weights[i]`` is at most ``kth[i] + EPS`` (none when ``kth[i]`` is
        NaN)."""
        mask = weights @ self.matrix.T <= (kth + EPS)[:, None]
        return [np.flatnonzero(row) for row in mask]

    def check(self, raw_weights: np.ndarray, k: int, answers) -> list[str | None]:
        """Per served ``(ids, scores)``: ``None`` when it is the exact top-k
        under the matching row of ``raw_weights``, else a message.

        Weights are normalized here with the function the engine uses.
        """
        from repro.analytics.oracle import oracle_top_k
        from repro.relation import normalize_weights

        d = self.matrix.shape[1]
        weights = np.array([normalize_weights(w, d) for w in raw_weights]).reshape(-1, d)
        want = min(int(k), self.matrix.shape[0])
        answers = [
            (np.asarray(ids, dtype=np.intp), np.asarray(scores, dtype=np.float64))
            for ids, scores in answers
        ]
        kth = np.array([
            scores[-1] if want and ids.shape == scores.shape == (want,) else np.nan
            for ids, scores in answers
        ])
        messages: list[str | None] = []
        for start in range(0, len(answers), CHUNK):
            chunk = slice(start, start + CHUNK)
            candidates = self.rows_at_most(weights[chunk], kth[chunk])
            for w, (ids, scores), rows in zip(weights[chunk], answers[chunk], candidates):
                got_rows, got_scores = oracle_top_k(self.matrix[rows], w, k)
                if (
                    self._ids(rows[got_rows]).tobytes() == ids.tobytes()
                    and got_scores.tobytes() == scores.tobytes()
                ):
                    messages.append(None)
                    continue
                full_rows, full_scores = oracle_top_k(self.matrix, w, k)
                messages.append(
                    f"served ids={ids.tolist()} scores={scores.tolist()}; oracle "
                    f"ids={self._ids(full_rows).tolist()} scores={full_scores.tolist()}"
                )
        return messages

    def _ids(self, rows: np.ndarray) -> np.ndarray:
        ids = rows if self.row_ids is None else self.row_ids[rows]
        return ids.astype(np.intp)


class ClusterMirror:
    """The cluster's live tuples, replayed from its writes.

    Rows are kept in ascending global id, the order the cluster breaks
    score ties in.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.ids = np.arange(matrix.shape[0], dtype=np.intp)
        self.matrix = np.array(matrix, dtype=np.float64)
        self.next_id = matrix.shape[0]

    def insert(self, values: np.ndarray) -> int:
        """Append a tuple under the next global id, which is returned."""
        gid = self.next_id
        self.next_id += 1
        self.ids = np.append(self.ids, gid)
        self.matrix = np.vstack([self.matrix, np.asarray(values, dtype=np.float64)])
        return gid

    def delete(self, gid: int) -> None:
        """Remove the tuple with global id ``gid``."""
        pos = int(np.searchsorted(self.ids, gid))
        if pos >= self.ids.shape[0] or self.ids[pos] != gid:
            raise KeyError(f"no live tuple with global id {gid}")
        self.ids = np.delete(self.ids, pos)
        self.matrix = np.delete(self.matrix, pos, axis=0)

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        return self.ids, self.matrix


def cluster_state(cluster) -> tuple[np.ndarray, np.ndarray]:
    """``(global ids, rows)`` of every live tuple of a ClusterEngine, by id."""
    ids = np.concatenate([shard.global_ids for shard in cluster.shards])
    rows = np.vstack([shard.relation.matrix for shard in cluster.shards])
    order = np.argsort(ids, kind="stable")
    return ids[order], rows[order]

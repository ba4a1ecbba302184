"""Reference elevator: the scanning entry points the indexes replaced.

:class:`ScanningElevator` answers ``expedite_file``,
``expedite_all_writes``, ``pop_next_for_spindle``,
``has_request_for_spindle`` and ``oldest_plugged_submit`` by walking the
whole queue or the spindle's view, as the scheduler did before it kept a
per-file index, a plugged set and per-spindle deadline orders.  The
differential tests drive it and
:class:`repro.storage.scheduler.ElevatorScheduler` through the same
operations and require the same answers.  Submission, merging and
removal are inherited: the views it scans are the ones the production
queue keeps.
"""

from repro.storage.scheduler import READ, WRITE, ElevatorScheduler


class ScanningElevator(ElevatorScheduler):
    """Same surface as ``ElevatorScheduler``; the five entry points scan."""

    def pop_next_for_spindle(
        self, head_position, spindle_id, op=None, write_plug=0.0
    ):
        queue = self._view(spindle_id)
        if not queue:
            return None
        starts = self._sp_starts[spindle_id]
        now = self.env.now
        best_idx = wrap_idx = expired_idx = None
        expired_time = float("inf")
        for idx, (start, request) in enumerate(zip(starts, queue)):
            if op is not None and request.op != op:
                continue
            submit_time = request.submit_time
            if (
                write_plug > 0.0
                and request.op == WRITE
                and not request.sync
                and now - submit_time < write_plug
            ):
                continue  # still plugged
            deadline = (
                self.read_deadline
                if request.op == READ
                else self.write_deadline
            )
            if now - submit_time > deadline and submit_time < expired_time:
                expired_time = submit_time
                expired_idx = idx
            if best_idx is None and start >= head_position:
                best_idx = idx
            if wrap_idx is None:
                wrap_idx = idx
        if expired_idx is not None:
            idx = expired_idx
        else:
            idx = best_idx if best_idx is not None else wrap_idx
        if idx is None:
            return None
        request = queue[idx]
        self._dequeue(request)
        self.stats.dispatched += 1
        self.stats.dispatched_submissions += request.count_all()
        return request

    def has_request_for_spindle(self, spindle_id, op=None):
        return any(
            op is None or request.op == op
            for request in self._view(spindle_id) or ()
        )

    def oldest_plugged_submit(self, spindle_id):
        oldest = None
        for request in self._view(spindle_id) or ():
            if request.op != WRITE or request.sync:
                continue
            if oldest is None or request.submit_time < oldest:
                oldest = request.submit_time
        return oldest

    def expedite_file(self, file_id):
        touched = set()
        for request in self._queue:
            if request.file_id == file_id and request.op == WRITE:
                request.sync = True
                touched.add(request.spindle)
        if touched and self.on_submit is not None:
            self.on_submit(touched)

    def expedite_all_writes(self):
        touched = set()
        for request in self._queue:
            if request.op == WRITE and not request.sync:
                request.sync = True
                touched.add(request.spindle)
        if touched and self.on_submit is not None:
            self.on_submit(touched)

"""Zero-copy CSR snapshots in shared memory for pool workers.

Fanning one big graph out to a process pool used to pickle the whole
adjacency into every task payload.  This module puts the frozen
:class:`~repro.graph.csr.CSRAdjacency` arrays into one
``multiprocessing.shared_memory`` segment instead, behind a tiny
picklable :class:`SharedCSR` handle: workers attach to the publisher's
pages and build zero-copy NumPy views, so a 10^6-node topology costs a
few hundred bytes per task on the wire no matter how many tasks ride it.

The moving parts:

* :func:`share_graphs` -- a context manager that activates a
  :class:`ShareSession` for the enclosing dispatch.  While active,
  ``Graph.__getstate__`` consults it and big graphs (>=``min_bytes`` of
  CSR arrays, default 2 MiB) pickle as handles; each distinct graph
  object is published exactly once per session.
* :meth:`SharedCSR.attach` -- worker-side reconstruction: attach by
  name, wrap the buffer in frozen ``int32``/``int64`` views (including
  the memoized triangle counts when the publisher had them), and keep
  the mapping alive for the process in a module registry.
* lifecycle -- the session unlinks its segments on exit (attached
  workers keep valid mappings; the kernel reclaims the pages when the
  last one detaches), an ``atexit`` hook unlinks anything the process
  still owns, and :func:`clean_orphans` sweeps ``/dev/shm`` for segments
  whose publisher pid is dead (``repro doctor --clean-shm``) -- the one
  hole left by SIGKILL, which runs no ``atexit``.

Only the engine's :class:`~repro.experiments.engine.PoolExecutor`
activates a session: a shared-memory name means something only to
processes on the publishing host.
"""

import atexit
import os
import pickle
import secrets
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.graph.csr import CSRAdjacency

_PREFIX = "repro-csr-"

# Segments this process published: name -> (SharedMemory, owner pid).
# The pid guards the atexit sweep against forked children inheriting the
# registry (the pool is created *before* any session publishes, so this
# is belt and braces).
_OWNED = {}

# Segments this process attached to: name -> SharedMemory.  Entries pin
# the mapping for the life of the process so the NumPy views handed to
# attached ``CSRAdjacency`` snapshots stay valid.
_ATTACHED = {}

# Unlinked segments whose mappings must stay alive: in-process attaches
# hold zero-copy views into them, so the pages are only reclaimed at
# process exit (their names are already gone from the filesystem).
_RETIRED = []

_SESSION = None

# Below this many bytes of CSR arrays a graph just pickles: attaching
# has fixed syscall overhead, so small graphs are cheaper on the plain
# path (and keep their eager dict adjacency, insertion order included).
DEFAULT_MIN_BYTES = 1 << 21


class _Segment(shared_memory.SharedMemory):
    """``SharedMemory`` whose close tolerates exported buffer views.

    ``SharedMemory.__del__`` closes the mapping and raises
    ``BufferError`` when NumPy views into it are still alive -- which is
    the *normal* state for attached CSR snapshots at interpreter
    shutdown.  Swallowing that error here keeps worker stderr clean; the
    kernel unmaps everything at process exit regardless.
    """

    def close(self):
        try:
            super().close()
        except BufferError:
            pass


def _align(offset):
    return (offset + 7) & ~7


def _layout(nodes, nnz, has_triangles, ids_size):
    """Byte offsets of the segment sections, each 8-byte aligned.

    ``[int32 indptr | int32 indices | int64 triangles? | pickled ids?]``
    """
    indices_at = _align((nodes + 1) * 4)
    triangles_at = _align(indices_at + nnz * 4)
    ids_at = _align(triangles_at + (nodes * 8 if has_triangles else 0))
    return indices_at, triangles_at, ids_at, ids_at + ids_size


def _attach_segment(name):
    try:
        return _Segment(name=name, track=False)
    except TypeError:
        # Python < 3.13: attaching registers the segment with the
        # resource tracker as if this process owned it, so worker exit
        # would unlink pages the publisher still serves.  Reverse the
        # registration by hand.
        segment = _Segment(name=name)
        try:
            resource_tracker.unregister(f"/{name}", "shared_memory")
        except Exception:
            pass
        return segment


class SharedCSR:
    """Picklable handle to a ``CSRAdjacency`` living in shared memory.

    A handle is a name plus the shape metadata needed to rebuild the
    array views without touching the segment; it pickles to a few
    hundred bytes regardless of graph size.
    """

    __slots__ = ("name", "nodes", "nnz", "has_triangles", "ids_size")

    def __init__(self, name, nodes, nnz, has_triangles, ids_size):
        self.name = name
        self.nodes = nodes
        self.nnz = nnz
        self.has_triangles = has_triangles
        self.ids_size = ids_size

    def __getstate__(self):
        return (self.name, self.nodes, self.nnz, self.has_triangles, self.ids_size)

    def __setstate__(self, state):
        self.name, self.nodes, self.nnz, self.has_triangles, self.ids_size = state

    def __repr__(self):
        return f"SharedCSR(name={self.name!r}, n={self.nodes}, nnz={self.nnz})"

    @classmethod
    def publish(cls, csr):
        """Copy ``csr``'s arrays into a fresh segment; return the handle.

        Identity ids (``0..n-1``) are encoded as a flag rather than
        stored; memoized triangle counts ride along when present, so
        attached workers inherit them without recounting.
        """
        n = len(csr.ids)
        nnz = int(csr.indptr[-1])
        triangles = csr._triangles
        identity = csr.ids == tuple(range(n))
        ids_bytes = b""
        if not identity:
            ids_bytes = pickle.dumps(csr.ids, protocol=pickle.HIGHEST_PROTOCOL)
        indices_at, triangles_at, ids_at, total = _layout(
            n, nnz, triangles is not None, len(ids_bytes)
        )
        segment = None
        for _ in range(16):
            name = f"{_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
            try:
                segment = _Segment(name=name, create=True, size=max(total, 1))
                break
            except FileExistsError:
                continue
        if segment is None:
            raise RuntimeError("could not allocate a shared-memory segment name")
        buf = segment.buf
        np.frombuffer(buf, dtype=np.int32, count=n + 1)[:] = csr.indptr
        if nnz:
            np.frombuffer(buf, dtype=np.int32, count=nnz, offset=indices_at)[:] = (
                csr.indices
            )
        if triangles is not None:
            np.frombuffer(buf, dtype=np.int64, count=n, offset=triangles_at)[:] = (
                triangles
            )
        if ids_bytes:
            buf[ids_at : ids_at + len(ids_bytes)] = ids_bytes
        _OWNED[name] = (segment, os.getpid())
        return cls(name, n, nnz, triangles is not None, len(ids_bytes))

    def attach(self):
        """Rebuild the ``CSRAdjacency`` as zero-copy views of the segment.

        The mapping is registered process-wide so repeated attaches of
        the same segment (one per task) reuse it, and so the views
        outlive the handle.
        """
        entry = _OWNED.get(self.name)
        segment = entry[0] if entry is not None else _ATTACHED.get(self.name)
        if segment is None:
            segment = _attach_segment(self.name)
            _ATTACHED[self.name] = segment
        indices_at, triangles_at, ids_at, _total = _layout(
            self.nodes, self.nnz, self.has_triangles, self.ids_size
        )
        buf = segment.buf
        indptr = np.frombuffer(buf, dtype=np.int32, count=self.nodes + 1)
        indices = np.frombuffer(
            buf, dtype=np.int32, count=self.nnz, offset=indices_at
        )
        if self.ids_size:
            ids = pickle.loads(bytes(buf[ids_at : ids_at + self.ids_size]))
        else:
            ids = range(self.nodes)
        csr = CSRAdjacency(indptr, indices, ids)
        if self.has_triangles:
            triangles = np.frombuffer(
                buf, dtype=np.int64, count=self.nodes, offset=triangles_at
            )
            triangles.flags.writeable = False
            object.__setattr__(csr, "_triangles", triangles)
        return csr

    def unlink(self):
        unlink(self.name)


def unlink(name):
    """Unlink a segment this process published (idempotent).

    The name disappears from the filesystem immediately; the mapping is
    *retired*, not closed, because in-process attaches may still hold
    zero-copy views into it.  Pages are reclaimed when the last mapping
    (this process's included) goes away.
    """
    entry = _OWNED.pop(name, None)
    if entry is None:
        return
    segment, _pid = entry
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    _RETIRED.append(segment)


@atexit.register
def _unlink_owned():
    pid = os.getpid()
    for name, (_segment, owner) in list(_OWNED.items()):
        if owner == pid:
            unlink(name)


class ShareSession:
    """Publish-once registry for one dispatch's worth of graph pickling.

    ``handle_for`` keeps a strong reference to every published graph so
    the ``id(graph)`` keys cannot be recycled while the session lives.
    """

    def __init__(self, min_bytes):
        self.min_bytes = min_bytes
        self._published = {}

    def handle_for(self, graph):
        """The graph's handle, publishing on first sight; ``None`` when
        the graph is too small to be worth a segment."""
        key = id(graph)
        entry = self._published.get(key)
        if entry is not None:
            return entry[1]
        approx = (2 * graph.edge_count() + len(graph) + 1) * 4
        if approx < self.min_bytes:
            return None
        handle = SharedCSR.publish(graph.to_csr())
        self._published[key] = (graph, handle)
        return handle

    def close(self):
        for _graph, handle in self._published.values():
            unlink(handle.name)
        self._published.clear()


def active_session():
    """The session ``Graph.__getstate__`` should consult, or ``None``."""
    return _SESSION


@contextmanager
def share_graphs(min_bytes=None):
    """Activate zero-copy graph sharing for the enclosing dispatch.

    Pool dispatch wraps its ``map`` in this context *after* the worker
    processes exist, so children never inherit an active session.  The
    session's segments are unlinked on exit: attached workers keep valid
    mappings, and the kernel reclaims the pages once the last detaches.

    ``REPRO_SHM_DISABLE=1`` turns the whole mechanism off (every graph
    pickles);
    ``REPRO_SHM_MIN_BYTES`` overrides the size threshold.  Nested
    activations reuse the outer session.
    """
    global _SESSION
    if _SESSION is not None or os.environ.get("REPRO_SHM_DISABLE") == "1":
        yield _SESSION
        return
    if min_bytes is None:
        min_bytes = int(os.environ.get("REPRO_SHM_MIN_BYTES", DEFAULT_MIN_BYTES))
    session = ShareSession(min_bytes)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None
        session.close()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def list_segments(root="/dev/shm"):
    """Names of every ``repro-csr-*`` segment visible on this host."""
    if not os.path.isdir(root):
        return []
    return sorted(entry for entry in os.listdir(root) if entry.startswith(_PREFIX))


def clean_orphans(root="/dev/shm"):
    """Remove segments whose publisher pid is dead; return their names.

    A SIGKILLed publisher runs no ``atexit`` hook, so its segments
    outlive it and hold kernel memory until reboot.  Segment names embed
    the publisher pid (``repro-csr-<pid>-<token>``), so orphans are
    exactly the ones whose pid no longer exists.  Live publishers are
    never touched.
    """
    removed = []
    if not os.path.isdir(root):
        return removed
    for entry in os.listdir(root):
        if not entry.startswith(_PREFIX):
            continue
        pid_text = entry[len(_PREFIX) :].split("-", 1)[0]
        if pid_text.isdigit() and _alive(int(pid_text)):
            continue
        try:
            os.unlink(os.path.join(root, entry))
        except OSError:
            continue
        removed.append(entry)
    return removed

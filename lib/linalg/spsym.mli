(** The symbolic half shared by the sparse LUs {!Splu} and {!Spclu}.

    A left-looking Gilbert–Peierls factorization finds, for every
    column [k], the set of rows its triangular solve touches (the
    column's {e reach} through the [L] columns factored so far) by a
    depth-first search. That set depends only on the sparsity pattern
    and on the pivot rows chosen for columns [0 … k-1], never on the
    values. A workspace refactored on one pattern with the same pivot
    sequence therefore sees the same reaches every time.

    This module owns the search scratch and a recording of each
    column's reach (in topological order) and pivot row. The first
    factorization on a workspace runs the search and records;
    later ones replay the recording and only re-run the threshold
    pivot rule on the fresh values. A column whose rule picks a row
    other than the recorded one raises {!Repivot}, and the caller
    restarts with a full search, which records anew. Replay performs
    the same floating-point operations as a fresh factorization, so
    its results are bit-identical. *)

type t = private {
  n : int;
  reach : int array;  (** search output: [reach.(top … n-1)] *)
  stack : int array;
  pstack : int array;
  mark : int array;
  rptr : int array;
      (** length [n + 1]: column [k]'s recorded reach is
          [rlist.(rptr.(k)) … rlist.(rptr.(k+1) - 1)] *)
  mutable rlist : int array;
  rpiv : int array;  (** recorded pivot row per column *)
  mutable recorded : bool;
      (** a complete factorization was recorded and may be replayed *)
}

exception Repivot
(** Raised by a replaying factorization whose pivot rule picks a row
    other than the recorded one. *)

val create : int -> cap:int -> t
(** Scratch for an [n × n] pattern; [cap] is the initial capacity of
    the reach recording (it grows on demand). *)

val start_search : t -> unit
(** Begin a factorization that searches and records: forgets the
    previous recording. *)

val search_column :
  t ->
  Sp.pattern ->
  li:int array ->
  lp:int array ->
  pinv:int array ->
  col:int ->
  k:int ->
  unit
(** Reach of pattern column [col], eliminated as column [k], through
    the [L] columns [0 … k-1] held in [lp]/[li] (original row indices;
    [pinv] maps a row to its pivot position, [-1] while not pivotal).
    Appends the reach in topological order (ancestors first) to the
    recording as column [k]. Columns must be searched in order
    [0, 1, …]. Allocates only when the recording grows. *)

val finish_search : t -> unit
(** Mark the recording complete, after the last column's pivot was
    stored in [rpiv]. *)

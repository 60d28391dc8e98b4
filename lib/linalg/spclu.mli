(** Sparse LU factorization of a complex CSC matrix ({!Sp.ct}).

    The complex twin of {!Splu}: left-looking Gilbert–Peierls columns,
    threshold partial pivoting on entry magnitudes, the same cached
    minimum-degree preordering, and {!Clu}-style workspace and
    [rcond_estimate] conventions. Built for the AC pencil [G + s·C]
    refilled over one compiled pattern per circuit. *)

exception Singular of { pivot_index : int; magnitude : float }

type t

val workspace : Sp.pattern -> t
(** Raises [Invalid_argument] on a non-square pattern. *)

val ws_matches : t -> Sp.pattern -> bool

val factor_into : ?guard:Guard.t -> t -> Sp.ct -> unit
(** Factor [P·A·Q = L·U]. The matrix must carry the workspace's
    pattern (physical equality). Raises {!Singular} on a pivot below
    [1e-300] or a guard rcond-floor breach. Fault site [sp.singular]
    forces a zero pivot in column 0; its probe runs once per call.
    Warm calls replay the recorded symbolic structure exactly as
    {!Splu.factor_into} does, bit-identical to a fresh workspace, and
    allocate nothing. *)

val factor : ?guard:Guard.t -> Sp.ct -> t

val rcond_estimate : t -> float
(** min|U_ii| / max|U_ii|, as in {!Clu.rcond_estimate}. *)

val solve_into : t -> Cmat.vec -> Cmat.vec -> unit
(** [solve_into f b x] solves [A·x = b]. [b] and [x] must be distinct
    buffers. *)

val solve_real_into : t -> float array -> re:float array -> im:float array -> unit
(** [solve_real_into f b ~re ~im] writes the solution of [A x = b] for
    a real right-hand side [b] into the split [x = re + i·im],
    allocating nothing. Bit-identical to {!solve_into} on [b] promoted
    to complex with zero imaginary parts. The three buffers must be
    distinct. *)

val solve : t -> Cmat.vec -> Cmat.vec

type factors = {
  pinv : int array;
  q : int array;
  lp : int array;
  li : int array;
  lre : float array;
  lim : float array;
  up : int array;
  ui : int array;
  ure : float array;
  uim : float array;
}

val factors : t -> factors
(** Copies of the stored factorization, laid out as {!Splu.factors}
    with split re/im values. Raises [Invalid_argument] when not
    factored. *)

val lu_nnz : t -> int

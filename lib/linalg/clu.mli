(** LU factorization with partial pivoting for dense complex matrices.

    Used to evaluate the MNA pencil solves [(G + s·C)⁻¹ B] that turn
    Jacobian snapshots into transfer-function samples.

    The factorization state doubles as a reusable workspace: the TFT
    sweep allocates one {!workspace} per domain and re-factors into it
    for every (snapshot, frequency) pair. The kernels work on the split
    re/im arrays of {!Cmat} and spell out the stdlib [Complex.mul],
    [Complex.div] (Smith's algorithm) and [Complex.norm] formulas
    operation for operation, so they are bit-for-bit equal to the same
    Doolittle elimination on boxed [Complex.t] values, and
    {!factor_into} plus {!solve_real_into} allocate nothing. [factor]
    and [solve] are thin wrappers over the [_into] kernels and perform
    bit-identical floating-point operations. *)

exception Singular of { pivot_index : int; magnitude : float }
(** Raised when elimination meets a pivot whose norm is zero,
    non-finite or below the tiny-pivot floor (1e-300), or — under a
    [?guard] — when the finished factorization's reciprocal-condition
    estimate falls below [Guard.rcond_min]. *)

type t
(** A factorization [P*A = L*U]; also the caller-owned workspace that
    {!factor_into} overwrites. *)

val workspace : int -> t
(** [workspace n] preallocates buffers for [n×n] factorizations. The
    contents are meaningless until the first {!factor_into}. *)

val factor_into : ?guard:Guard.t -> t -> Cmat.t -> unit
(** [factor_into ws a] factors [a] into [ws], fully overwriting any
    previous factorization. [a] is left untouched. Raises {!Singular}
    on a zero or non-finite pivot — or, with a [?guard], when
    {!rcond_estimate} of the result falls below [guard.rcond_min] —
    and [Invalid_argument] if [ws] was created for a different size.
    Hosts the ["clu.pivot_zero"] fault probe. *)

val factor : ?guard:Guard.t -> Cmat.t -> t
(** [factor a] is [factor_into] on a fresh workspace. *)

val lu : t -> Cmat.t
(** The packed [L\U] factors of the last {!factor_into} (unit diagonal
    of [L] implicit). A view of the workspace, for differential tests:
    do not mutate it. *)

val perm : t -> int array
(** Row permutation of the last {!factor_into}: row [i] of [P*A] is row
    [perm.(i)] of [A]. A view, like {!lu}. *)

val rcond_estimate : t -> float
(** Diagonal-ratio reciprocal-condition proxy of a finished
    factorization: [min |U_ii| / max |U_ii|], in [0, 1]; 0 when the
    diagonal is degenerate or non-finite. *)

val solve_real_into : t -> float array -> re:float array -> im:float array -> unit
(** [solve_real_into f b ~re ~im] writes the solution of [A x = b] for a
    real right-hand side [b] into the split [x = re + i·im], allocating
    nothing. Bit-identical to {!solve_into} on [b] promoted to complex
    with zero imaginary parts. The three buffers must be distinct; [b]
    is left untouched. This is the TFT entry point: the MNA input
    matrix [B] is real. *)

val solve_into : t -> Cmat.vec -> Cmat.vec -> unit
(** [solve_into f b x] writes the solution of [A x = b] into the
    caller-owned [x], substituting in split scratch held by [f] and
    boxing only the [n] results. [b] and [x] must be distinct buffers;
    [b] is left untouched. *)

val solve : t -> Cmat.vec -> Cmat.vec
(** Allocating wrapper over {!solve_into}. *)

val solve_mat : t -> Cmat.t -> Cmat.t
(** Solve [A X = B] column-wise. *)

val solve_system : Cmat.t -> Cmat.vec -> Cmat.vec
(** One-shot [factor] + [solve]. *)

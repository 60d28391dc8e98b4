(** The boxed dense complex LU: the bitwise reference for {!Linalg.Clu}.

    This is the Doolittle elimination with partial pivoting that
    [Linalg.Clu] ran before dense complex matrices moved to split re/im
    storage, kept operation for operation on [Complex.t] records and the
    stdlib [Complex] arithmetic. The split kernels must reproduce it bit
    for bit: same permutation, same [LU] entries, same solutions, same
    [Linalg.Clu.Singular] payloads (the tiny-pivot floor, the
    ["clu.pivot_zero"] fault probe and the guard rcond floor included).

    It is slow and allocates per operation. It is a test oracle only:
    nothing in the extraction stack may call it. *)

type t

val workspace : int -> t
val factor_into : ?guard:Guard.t -> t -> Linalg.Cmat.t -> unit
val factor : ?guard:Guard.t -> Linalg.Cmat.t -> t
val solve : t -> Complex.t array -> Complex.t array

val lu : t -> Complex.t array
(** Row-major packed [L\U] factors ([n*n] entries, unit diagonal of [L]
    implicit). *)

val perm : t -> int array
(** Row permutation: row [i] of [P*A] is row [perm.(i)] of [A]. *)

val pencil : g:Linalg.Mat.t -> c:Linalg.Mat.t -> s:Complex.t -> Linalg.Cmat.t
(** [G + s·C] formed with boxed [Complex] arithmetic, as the pre-split
    [Cmat.lincomb] did. *)

val project : t -> b:Linalg.Mat.t -> d:Linalg.Mat.t -> Linalg.Cmat.t
(** [Dᵀ A⁻¹ B] from a finished factorization of [A]: [B] promoted to
    complex, per-column boxed {!solve}s, then the [Dᵀ X] fold that skips
    zero entries of [D]. *)

val transfer :
  g:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  b:Linalg.Mat.t ->
  d:Linalg.Mat.t ->
  s:Complex.t ->
  Linalg.Cmat.t
(** The pre-split [Ac.transfer_at]: {!project} of the {!factor}ed
    {!pencil}. *)

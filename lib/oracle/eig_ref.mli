(** The copying eigenvalue pipeline: the bitwise reference for
    {!Linalg.Eig}.

    This is Parlett–Reinsch balancing, Householder reduction to
    Hessenberg form and the EISPACK [hqr] double-shift QR iteration as
    [Linalg.Eig] ran them before the pipeline moved in place: each stage
    works on a copy, so the argument is left untouched. The in-place
    kernel must reproduce it bit for bit, raising
    {!Linalg.Eig.No_convergence} in exactly the same cases.

    It allocates per call and per boxed float. It is a test oracle only:
    nothing in the extraction stack may call it. *)

val balance : Linalg.Mat.t -> Linalg.Mat.t
(** Balanced copy of the argument. *)

val hessenberg : Linalg.Mat.t -> Linalg.Mat.t
(** Upper Hessenberg copy of the argument. *)

val eigenvalues : Linalg.Mat.t -> Complex.t array
(** Eigenvalues of a square real matrix; the argument is not modified.
    Raises {!Linalg.Eig.No_convergence} where {!Linalg.Eig.eigenvalues}
    does. *)

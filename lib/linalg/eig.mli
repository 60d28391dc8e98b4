(** Eigenvalues of dense real (generally unsymmetric) matrices.

    Pipeline: Parlett–Reinsch balancing → Householder reduction to upper
    Hessenberg form → Francis implicit double-shift QR iteration. Only
    eigenvalues are computed; this is all vector-fitting pole relocation
    needs (new poles = eigenvalues of [A − b·c̃ᵀ/d̃]).

    {b In-place contract.} Every stage works on the caller's matrix and
    overwrites it: {!balance} and {!hessenberg} transform their argument
    in place, and {!eigenvalues} leaves its argument balanced, reduced
    and partly deflated — garbage to the caller. Pass a copy
    ([Mat.copy]) when the matrix is still needed. In exchange the
    pipeline allocates nothing but its output, so a hot loop can refill
    one scratch matrix per call (vector fitting keeps one per fit). The
    arithmetic is bit-identical to the copying formulation it replaced,
    which survives as the test oracle [Oracle.Eig_ref]. *)

exception No_convergence
(** Raised when the QR iteration fails to deflate within the iteration
    budget (extremely rare on balanced matrices). *)

val balance : Mat.t -> unit
(** In place: diagonal similarity scaling that roughly equalizes
    row/column norms. *)

val hessenberg : Mat.t -> unit
(** In place: orthogonal similarity reduction to upper Hessenberg form. *)

val eigenvalues : Mat.t -> Cx.t array
(** Eigenvalues of a square real matrix, in no particular order. Complex
    eigenvalues appear in conjugate pairs. Destroys its argument (see the
    in-place contract above); the returned array and its entries are the
    only allocation. Raises {!No_convergence} where the QR iteration
    exhausts its budget. *)

val companion : float array -> Mat.t
(** [companion [|c0; c1; ...; c_{n-1}|]] is the companion matrix of the
    monic polynomial [x^n + c_{n-1} x^{n-1} + ... + c0]. *)

val poly_roots : float array -> Cx.t array
(** Roots of a polynomial given coefficients in increasing-degree order
    [[|a0; a1; ...; an|]] (with [an <> 0]). *)

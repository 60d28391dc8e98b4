(** Dense complex matrices and vectors, row-major storage.

    A matrix keeps its real and imaginary parts in two separate float
    arrays (element [(i,j)] at index [i*cols + j] of each), the same
    split convention as the sparse {!Sp.ct}. Float arrays are stored
    unboxed, so in-place kernels ({!Clu}, the TFT pencil solve) read and
    write them without allocating; see {!unsafe_re}. The boxed
    {!get}/{!set}/{!init}/{!get_col}/{!set_col} accessors allocate a
    [Cx.t] per element read and are meant for cold callers. *)

type t

type vec = Cx.t array

val create : int -> int -> t
val init : int -> int -> (int -> int -> Cx.t) -> t
val identity : int -> t

val lincomb : Cx.t -> Mat.t -> Cx.t -> Mat.t -> t
(** [lincomb a ma b mb] computes [a*ma + b*mb] as a complex matrix.
    This is how [G + s*C] pencils are formed. *)

val lincomb_into : t -> Cx.t -> Mat.t -> Cx.t -> Mat.t -> unit
(** [lincomb_into dst a ma b mb] overwrites [dst] with [a*ma + b*mb]:
    the allocation-free pencil build used by the sweep workspaces.
    Performs element-wise exactly the same arithmetic as {!lincomb}. *)

val rows : t -> int
val cols : t -> int

val unsafe_re : t -> float array
(** The raw row-major real parts ([rows*cols] floats, element [(i,j)]
    at index [i*cols + j]). For allocation-free in-place kernels inside
    {!Linalg}, in the spirit of {!Mat.unsafe_data}; mutating it mutates
    the matrix. *)

val unsafe_im : t -> float array
(** The imaginary-part counterpart of {!unsafe_re}. *)

val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src] (same shape required). *)

val get_col : t -> int -> vec -> unit
(** [get_col m j dst] reads column [j] of [m] into [dst]. *)

val set_col : t -> int -> vec -> unit
(** [set_col m j src] writes [src] into column [j] of [m]. *)

val set_col_mul_t :
  t -> int -> Mat.t -> re:float array -> im:float array -> unit
(** [set_col_mul_t h j d ~re ~im] writes [Dᵀ x] into column [j] of [h],
    where [x = re + i·im] is a split vector of [d]'s row count. Zero
    entries of [d] are skipped and each sum starts at [+0], so the
    result is bit-identical to folding [Cx.(acc +: scale d_k x_k)] over
    the nonzero [d_k]. Allocation-free: the TFT output projection. *)

val mul : t -> t -> t
val mulv : t -> vec -> vec
val swap_rows : t -> int -> int -> unit
val max_abs : t -> float
val pp : Format.formatter -> t -> unit

type weighting = Uniform | Inv_magnitude | Inv_sqrt
type relocation_kernel = Dense | Fast

type opts = {
  iterations : int;
  with_const : bool;
  with_slope : bool;
  enforce_stable : bool;
  min_imag : float;
  relax : bool;
  weighting : weighting;
  max_magnitude : float;
  relocation_kernel : relocation_kernel;
}

let default_frequency_opts =
  {
    iterations = 10;
    with_const = true;
    with_slope = false;
    enforce_stable = true;
    min_imag = 0.0;
    relax = true;
    weighting = Inv_sqrt;
    max_magnitude = 0.0;
    relocation_kernel = Fast;
  }

let default_state_opts =
  {
    iterations = 10;
    with_const = true;
    with_slope = false;
    enforce_stable = false;
    min_imag = 1e-6;
    relax = true;
    weighting = Uniform;
    max_magnitude = 0.0;
    relocation_kernel = Fast;
  }

type info = {
  rms : float;
  max_err : float;
  iterations_run : int;
  pole_count : int;
}

let src = Logs.Src.create "vf" ~doc:"vector fitting"

module Log = (val Logs.src_log src : Logs.LOG)

let weights_of opts data =
  Array.map
    (fun row ->
      match opts.weighting with
      | Uniform -> Array.map (fun _ -> 1.0) row
      | Inv_magnitude | Inv_sqrt ->
          let base =
            Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 row
          in
          let floor_mag = Float.max (1e-4 *. base) 1e-300 in
          Array.map
            (fun z ->
              let m = Float.max (Complex.norm z) floor_mag in
              match opts.weighting with
              | Inv_magnitude -> 1.0 /. m
              | Inv_sqrt -> 1.0 /. sqrt m
              | Uniform -> 1.0)
            row)
    data

(* Column scales make the basis columns O(1); the same scales are applied
   to the residue columns and the sigma columns so that solutions can be
   unscaled independently per column. Reads the split basis table
   ([l*p + c]) and writes the [p] column scales followed by the point
   scale into [scales]. *)
let column_scales ~phr ~phm ~p ~n_points points scales =
  for col = 0 to p - 1 do
    let m = ref 0.0 in
    for l = 0 to n_points - 1 do
      let i = (l * p) + col in
      m := Float.max !m (Float.hypot phr.(i) phm.(i))
    done;
    scales.(col) <- (if !m > 0.0 then 1.0 /. !m else 1.0)
  done;
  let zmax = ref 0.0 in
  for l = 0 to n_points - 1 do
    let z = points.(l) in
    zmax := Float.max !zmax (Float.hypot z.Complex.re z.Complex.im)
  done;
  scales.(p) <- (if !zmax > 0.0 then 1.0 /. !zmax else 1.0)

(* per-relocation telemetry: how far sigma is from its constant part
   (→ 0 as the poles converge), the relaxation constant, the spread of
   the column scales (a conditioning proxy for the stacked LS system)
   and how many relocated poles had to be reflected into the left half
   plane *)
type reloc_diag = {
  sigma_rms : float;
  d_tilde : float;
  scale_spread : float;
  flips : int;
}

(* Nontriviality row weight: the mean weighted |F| over all samples. *)
let relax_row_weight ~weights ~data =
  let acc = ref 0.0 and cnt = ref 0 in
  Array.iteri
    (fun e row ->
      Array.iteri
        (fun l z ->
          acc := !acc +. (weights.(e).(l) *. Complex.norm z);
          incr cnt)
        row)
    data;
  Float.max (!acc /. float_of_int (Stdlib.max 1 !cnt)) 1e-12

(* Append the relaxed nontriviality row Σ_l Re σ(z_l) = n_points to the
   condensed system at [row]. *)
let add_relax_row ~phr ~scales ~weights ~data ~p ~n_points big big_rhs row =
  let w_relax = relax_row_weight ~weights ~data in
  for c = 0 to p - 1 do
    let s = ref 0.0 in
    for l = 0 to n_points - 1 do
      s := !s +. phr.((l * p) + c)
    done;
    Linalg.Mat.set big row c (w_relax *. !s *. scales.(c))
  done;
  Linalg.Mat.set big row p (w_relax *. float_of_int n_points);
  big_rhs.(row) <- w_relax *. float_of_int n_points

(* Unscale the condensed-system solution and derive the per-iteration
   telemetry; shared verbatim by the dense and fast kernels. *)
let sigma_post ~relax ~phr ~phm ~scales ~n_points ~p sol =
  let c_tilde = Array.init p (fun c -> sol.(c) *. scales.(c)) in
  let d_tilde = if relax then sol.(p) else 1.0 in
  (* RMS of sigma's non-constant part over the fit points *)
  let sigma_rms =
    let acc = ref 0.0 in
    for l = 0 to n_points - 1 do
      let zr = ref 0.0 and zi = ref 0.0 in
      for c = 0 to p - 1 do
        zr := !zr +. (c_tilde.(c) *. phr.((l * p) + c));
        zi := !zi +. (c_tilde.(c) *. phm.((l * p) + c))
      done;
      acc := !acc +. ((!zr *. !zr) +. (!zi *. !zi))
    done;
    sqrt (!acc /. float_of_int (Stdlib.max 1 n_points))
  in
  let scale_spread =
    let lo = ref Float.infinity and hi = ref 0.0 in
    for c = 0 to p - 1 do
      let s = scales.(c) in
      if s > 0.0 then begin
        lo := Float.min !lo s;
        hi := Float.max !hi s
      end
    done;
    if !hi > 0.0 && Float.is_finite !lo then !hi /. !lo else 1.0
  in
  (c_tilde, d_tilde, sigma_rms, scale_spread)

(* Solve for the sigma coefficients (c-tilde, d-tilde) given current
   poles. Returns None if the least squares degenerates. Legacy kernel:
   one dense per-element system over the full interleaved re/im rows,
   freshly allocated and factored with the copying QR entry points, on
   the boxed [Basis.table] — kept behind [opts.relocation_kernel = Dense]
   as the differential-testing reference. *)
let sigma_step_dense ~opts ~poles ~points ~data ~weights ~relax =
  let p = Array.length poles in
  let n_points = Array.length points in
  let n_elems = Array.length data in
  let phi = Basis.table poles points in
  let phr = Array.init (n_points * p) (fun i -> phi.(i / p).(i mod p).Complex.re) in
  let phm = Array.init (n_points * p) (fun i -> phi.(i / p).(i mod p).Complex.im) in
  let scales = Array.make (p + 1) 1.0 in
  column_scales ~phr ~phm ~p ~n_points points scales;
  let zscale = scales.(p) in
  let n1 = p + (if opts.with_const then 1 else 0) + (if opts.with_slope then 1 else 0) in
  let n2 = if relax then p + 1 else p in
  if 2 * n_points < n1 + n2 then
    invalid_arg
      (Printf.sprintf "Vfit: %d points cannot determine %d unknowns" n_points
         (n1 + n2));
  let stacked_rows = (n_elems * n2) + if relax then 1 else 0 in
  let big = Linalg.Mat.create stacked_rows n2 in
  let big_rhs = Linalg.Vec.create stacked_rows in
  let row_cursor = ref 0 in
  for e = 0 to n_elems - 1 do
    let a = Linalg.Mat.create (2 * n_points) (n1 + n2) in
    let rhs = Linalg.Vec.create (2 * n_points) in
    for l = 0 to n_points - 1 do
      let w = weights.(e).(l) in
      let f = data.(e).(l) in
      let re_row = 2 * l and im_row = (2 * l) + 1 in
      (* per-element columns: residues, const, slope *)
      for c = 0 to p - 1 do
        let v = phi.(l).(c) in
        Linalg.Mat.set a re_row c (w *. v.Complex.re *. scales.(c));
        Linalg.Mat.set a im_row c (w *. v.Complex.im *. scales.(c))
      done;
      let cursor = ref p in
      if opts.with_const then begin
        Linalg.Mat.set a re_row !cursor w;
        incr cursor
      end;
      if opts.with_slope then begin
        Linalg.Mat.set a re_row !cursor (w *. points.(l).Complex.re *. zscale);
        Linalg.Mat.set a im_row !cursor (w *. points.(l).Complex.im *. zscale);
        incr cursor
      end;
      (* sigma columns: −w·F·φ (and −w·F for d-tilde in relaxed mode) *)
      for c = 0 to p - 1 do
        let v = Complex.mul f phi.(l).(c) in
        Linalg.Mat.set a re_row (n1 + c) (-.w *. v.Complex.re *. scales.(c));
        Linalg.Mat.set a im_row (n1 + c) (-.w *. v.Complex.im *. scales.(c))
      done;
      if relax then begin
        Linalg.Mat.set a re_row (n1 + p) (-.w *. f.Complex.re);
        Linalg.Mat.set a im_row (n1 + p) (-.w *. f.Complex.im)
      end
      else begin
        (* non-relaxed: sigma = 1 + Σ c̃φ, the "1" moves to the RHS *)
        rhs.(re_row) <- w *. f.Complex.re;
        rhs.(im_row) <- w *. f.Complex.im
      end
    done;
    (* condense: only the trailing n2×n2 block of R couples the shared
       unknowns (fast VF of ref. [9]) *)
    match Linalg.Qr.factor a with
    | exception Linalg.Qr.Rank_deficient _ -> ()
    | qr ->
        let r = Linalg.Qr.r qr in
        let qtb =
          if relax then Linalg.Vec.create (2 * n_points)
          else Linalg.Qr.apply_qt qr rhs
        in
        for k = 0 to n2 - 1 do
          for c = 0 to n2 - 1 do
            Linalg.Mat.set big (!row_cursor + k) c
              (Linalg.Mat.get r (n1 + k) (n1 + c))
          done;
          big_rhs.(!row_cursor + k) <- (if relax then 0.0 else qtb.(n1 + k))
        done;
        row_cursor := !row_cursor + n2
  done;
  if relax then begin
    add_relax_row ~phr ~scales ~weights ~data ~p ~n_points big big_rhs
      !row_cursor;
    incr row_cursor
  end;
  let rows_used = !row_cursor in
  if rows_used < n2 then None
  else begin
    let m = Linalg.Mat.init rows_used n2 (fun r c -> Linalg.Mat.get big r c) in
    let rhs = Array.sub big_rhs 0 rows_used in
    match Linalg.Qr.least_squares m rhs with
    | exception Linalg.Qr.Rank_deficient _ -> None
    | sol -> Some (sigma_post ~relax ~phr ~phm ~scales ~n_points ~p sol)
  end

let dense_sigma_step ~opts ~poles ~points ~data ~weights ~relax =
  Option.map
    (fun (c_tilde, d_tilde, _, _) -> (c_tilde, d_tilde))
    (sigma_step_dense ~opts ~poles ~points ~data ~weights ~relax)

(* --- workspaces ------------------------------------------------------- *)

(* Per-element scratch: the element QR workspace, the uniform-path tail
   workspace, a right-hand-side buffer and a solution buffer. One per
   chunk when fanned out across a pool, one persistent instance on the
   sequential path. *)
type elem_ws = {
  qa : Linalg.Qr.ws;
  qtail : Linalg.Qr.ws;
  mutable rhs_buf : float array;
  mutable sol : float array;
}

let make_elem_ws () =
  {
    qa = Linalg.Qr.workspace ();
    qtail = Linalg.Qr.workspace ();
    rhs_buf = [||];
    sol = [||];
  }

(* Fit workspace: created once per [fit] call and reused by every sigma
   step, every eigenvalue solve and the final residue identification, so
   the steady state performs no large allocations. *)
type ws = {
  shared : Linalg.Qr.ws;
      (** shared-φ0 factorization (sigma step and identification) *)
  qbig : Linalg.Qr.ws;  (** condensed system and its in-place solve *)
  seq_elem : elem_ws;
  mutable big_rhs : float array;
  mutable phr : float array;  (** split basis table, entry [l*p + c] *)
  mutable phm : float array;
  mutable scales : float array;  (** [p] column scales, then the point scale *)
  mutable eig : Linalg.Mat.t;  (** relocation eigenproblem, destroyed per solve *)
}

let workspace () =
  {
    shared = Linalg.Qr.workspace ();
    qbig = Linalg.Qr.workspace ();
    seq_elem = make_elem_ws ();
    big_rhs = [||];
    phr = [||];
    phm = [||];
    scales = [||];
    eig = Linalg.Mat.create 0 0;
  }

(* pool-parked per-chunk element workspaces for the element fan-outs *)
let elem_ws_key : elem_ws Exec.key = Exec.new_key ()

let elem_slot pool chunk =
  Exec.slot pool elem_ws_key ~chunk ~valid:(fun _ -> true) ~make:make_elem_ws

(* the split basis table and the column/point scales of [poles] at
   [points], in the workspace *)
let prepare_basis ws ~poles ~points =
  let p = Array.length poles and n_points = Array.length points in
  let size = n_points * p in
  if Array.length ws.phr < size then begin
    ws.phr <- Array.make size 0.0;
    ws.phm <- Array.make size 0.0
  end;
  if Array.length ws.scales < p + 1 then ws.scales <- Array.make (p + 1) 0.0;
  Basis.table_into poles points ~re:ws.phr ~im:ws.phm;
  column_scales ~phr:ws.phr ~phm:ws.phm ~p ~n_points points ws.scales

(* --- real-axis row compaction ----------------------------------------- *)

(* Row layout of the per-element least-squares systems: point [l] owns a
   real-part row and, for [l < half], an imaginary-part row right below
   it. [half = n_points] is the full interleaved layout (rows [2l] and
   [2l+1]); a smaller [half] keeps both rows for the leading points only
   and one real row for each later point, [half + n_points] rows in all.

   Householder QR pivots on rows [0..n-1] only. An exactly-zero row past
   that block keeps a zero reflector entry, is never written and adds
   only ±0 terms to sums that start at +0.0, so dropping it leaves R,
   [Qᵀb] and every solution bit-identical (DESIGN.md §13). *)
let[@inline] re_row ~half l = if l < half then 2 * l else l + half

(* [half] for a system whose pivot block has [pivot] columns: the pivot
   block rounded up to whole points when every imaginary row is exactly
   ±0 — real basis values, real data, real points under [with_slope] —
   and every value that multiplies one of those zeros is finite (a
   non-finite factor would turn the zero into a NaN); the full layout
   otherwise. Reads the workspace's basis and scales. *)
let compact_half ws ~opts ~pivot ~p ~points ~data ~weights =
  let n_points = Array.length points in
  let ok = ref true in
  for i = 0 to (n_points * p) - 1 do
    if ws.phm.(i) <> 0.0 || not (Float.is_finite ws.phr.(i)) then ok := false
  done;
  for c = 0 to p - 1 do
    if not (Float.is_finite ws.scales.(c)) then ok := false
  done;
  for e = 0 to Array.length data - 1 do
    let de = data.(e) and we = weights.(e) in
    for l = 0 to n_points - 1 do
      let f = de.(l) in
      if
        f.Complex.im <> 0.0
        || (not (Float.is_finite f.Complex.re))
        || not (Float.is_finite we.(l))
      then ok := false
    done
  done;
  if opts.with_slope then begin
    if not (Float.is_finite ws.scales.(p)) then ok := false;
    for l = 0 to n_points - 1 do
      let z = points.(l) in
      if z.Complex.im <> 0.0 || not (Float.is_finite z.Complex.re) then
        ok := false
    done
  end;
  if !ok then Stdlib.min n_points ((pivot + 1) / 2) else n_points

(* the residue/const/slope block [phi0] under the weight row [w], in
   columns [0..n1-1] of [a] and the row layout [half] selects *)
let fill_phi0 ws a ~opts ~p ~half ~points (w : float array) =
  let d = Linalg.Mat.unsafe_data a in
  let nc = Linalg.Mat.cols a in
  let phr = ws.phr and phm = ws.phm and scales = ws.scales in
  let zscale = scales.(p) in
  for l = 0 to Array.length points - 1 do
    let wl = w.(l) in
    let re_base = re_row ~half l * nc in
    let im_base = re_base + nc in
    let has_im = l < half in
    for c = 0 to p - 1 do
      let i = (l * p) + c in
      let sc = Array.unsafe_get scales c in
      Array.unsafe_set d (re_base + c) (wl *. Array.unsafe_get phr i *. sc);
      if has_im then
        Array.unsafe_set d (im_base + c) (wl *. Array.unsafe_get phm i *. sc)
    done;
    let cursor =
      if opts.with_const then begin
        Array.unsafe_set d (re_base + p) wl;
        p + 1
      end
      else p
    in
    if opts.with_slope then begin
      let z = points.(l) in
      Array.unsafe_set d (re_base + cursor) (wl *. z.Complex.re *. zscale);
      if has_im then
        Array.unsafe_set d (im_base + cursor) (wl *. z.Complex.im *. zscale)
    end
  done

(* the sigma block [−w·F·φ] (and [−w·F] for d-tilde when relaxed) of
   one element, from column [col0] of [a]: same values as the boxed
   [Complex.mul] formulation, written straight into the flat storage *)
let fill_sigma ws a ~col0 ~relax ~p ~half (w : float array)
    (f : Complex.t array) =
  let d = Linalg.Mat.unsafe_data a in
  let nc = Linalg.Mat.cols a in
  let phr = ws.phr and phm = ws.phm and scales = ws.scales in
  for l = 0 to Array.length f - 1 do
    let wl = w.(l) in
    let fl = f.(l) in
    let fr = fl.Complex.re and fi = fl.Complex.im in
    let re_base = (re_row ~half l * nc) + col0 in
    let im_base = re_base + nc in
    let has_im = l < half in
    for c = 0 to p - 1 do
      let i = (l * p) + c in
      let v_re = Array.unsafe_get phr i and v_im = Array.unsafe_get phm i in
      let vr = (fr *. v_re) -. (fi *. v_im) in
      let vi = (fr *. v_im) +. (fi *. v_re) in
      let sc = Array.unsafe_get scales c in
      Array.unsafe_set d (re_base + c) (-.wl *. vr *. sc);
      if has_im then Array.unsafe_set d (im_base + c) (-.wl *. vi *. sc)
    done;
    if relax then begin
      Array.unsafe_set d (re_base + p) (-.wl *. fr);
      if has_im then Array.unsafe_set d (im_base + p) (-.wl *. fi)
    end
  done

(* the weighted data [w·F] of one element as a right-hand side in the
   layout [half] selects; [buf] holds exactly [half + n_points] rows *)
let fill_rhs buf ~half (w : float array) (f : Complex.t array) =
  for l = 0 to Array.length f - 1 do
    let wl = w.(l) and fl = f.(l) in
    buf.(re_row ~half l) <- wl *. fl.Complex.re;
    if l < half then buf.((2 * l) + 1) <- wl *. fl.Complex.im
  done

(* every weight row bit-identical to the first: the [phi0] block is then
   the same for every element *)
let rows_identical weights =
  let same = ref true in
  if Array.length weights > 0 then begin
    let w0 = weights.(0) in
    for e = 1 to Array.length weights - 1 do
      let we = weights.(e) in
      for l = 0 to Array.length w0 - 1 do
        if
          not
            (Int64.equal (Int64.bits_of_float we.(l)) (Int64.bits_of_float w0.(l)))
        then same := false
      done
    done
  end;
  !same

let ensure_rhs ews rows =
  if Array.length ews.rhs_buf <> rows then ews.rhs_buf <- Array.make rows 0.0

(* --- fast relocation kernel ------------------------------------------ *)

(* Fast-VF sigma step (Deschrijver et al. 2008; SNIPPETS.md snippet 3):
   per element QR-factor [phi0 | −D·phi1] and keep only the trailing
   [R22] block (and [Q2ᵀV] rhs block in non-relaxed mode), accumulated
   at a fixed row offset of the small condensed system. Identical
   per-entry arithmetic to [sigma_step_dense] — [Qr.factor_into] is
   bit-compatible with [Qr.factor], and on real-axis data the exactly
   zero imaginary rows past the pivot block are left out
   ([compact_half]) — so the two kernels agree bitwise; the speed comes
   from in-place workspace factorization, the compacted rows and, under
   uniform weighting, from factoring the shared [phi0] block once and
   pushing its reflectors onto each element's sigma block
   ([Qr.apply_qt_mat]) instead of refactoring it per element. Elements
   are independent and write disjoint rows, so they optionally fan out
   across [pool] with bit-identical results. *)
let sigma_step_fast ?pool ~ws ~opts ~poles ~points ~data ~weights ~relax () =
  let p = Array.length poles in
  let n_points = Array.length points in
  let n_elems = Array.length data in
  prepare_basis ws ~poles ~points;
  let n1 = p + (if opts.with_const then 1 else 0) + (if opts.with_slope then 1 else 0) in
  let n2 = if relax then p + 1 else p in
  if 2 * n_points < n1 + n2 then
    invalid_arg
      (Printf.sprintf "Vfit: %d points cannot determine %d unknowns" n_points
         (n1 + n2));
  let half = compact_half ws ~opts ~pivot:(n1 + n2) ~p ~points ~data ~weights in
  let m_rows = half + n_points in
  let stacked_rows = (n_elems * n2) + if relax then 1 else 0 in
  let big = Linalg.Qr.ws_matrix ws.qbig ~rows:stacked_rows ~cols:n2 in
  if Array.length ws.big_rhs <> stacked_rows then
    ws.big_rhs <- Array.make stacked_rows 0.0
  else Array.fill ws.big_rhs 0 stacked_rows 0.0;
  let big_rhs = ws.big_rhs in
  (* the residue/const/slope block [phi0] is element-independent exactly
     when the row weights are (uniform weighting): factor it once and
     reuse its reflectors for every element *)
  let share_phi0 = n1 > 0 && n_elems > 1 && rows_identical weights in
  let t1 =
    if not share_phi0 then None
    else begin
      let a1 = Linalg.Qr.ws_matrix ws.shared ~rows:m_rows ~cols:n1 in
      fill_phi0 ws a1 ~opts ~p ~half ~points weights.(0);
      Some (Linalg.Qr.factor_into ws.shared a1)
    end
  in
  let process ews e =
    match t1 with
    | Some t1 ->
        (* two-stage factorization: reflectors of the shared [phi0]
           pushed onto this element's sigma block, then QR of the tail
           rows — bit-identical to factoring [phi0 | sigma] whole *)
        let a2 = Linalg.Qr.ws_matrix ews.qa ~rows:m_rows ~cols:n2 in
        fill_sigma ws a2 ~col0:0 ~relax ~p ~half weights.(e) data.(e);
        Linalg.Qr.apply_qt_mat t1 a2;
        let tail_rows = m_rows - n1 in
        let tail = Linalg.Qr.ws_matrix ews.qtail ~rows:tail_rows ~cols:n2 in
        Array.blit
          (Linalg.Mat.unsafe_data a2)
          (n1 * n2)
          (Linalg.Mat.unsafe_data tail)
          0
          (tail_rows * n2);
        let t2 = Linalg.Qr.factor_into ews.qtail tail in
        Linalg.Qr.r22_block t2 ~split:0 big (e * n2);
        if not relax then begin
          ensure_rhs ews m_rows;
          fill_rhs ews.rhs_buf ~half weights.(e) data.(e);
          Linalg.Qr.apply_qt_into t1 ews.rhs_buf;
          Linalg.Qr.apply_qt_into t2 ~off:n1 ews.rhs_buf;
          for k = 0 to n2 - 1 do
            big_rhs.((e * n2) + k) <- ews.rhs_buf.(n1 + k)
          done
        end
    | None ->
        let a = Linalg.Qr.ws_matrix ews.qa ~rows:m_rows ~cols:(n1 + n2) in
        fill_phi0 ws a ~opts ~p ~half ~points weights.(e);
        fill_sigma ws a ~col0:n1 ~relax ~p ~half weights.(e) data.(e);
        let t = Linalg.Qr.factor_into ews.qa a in
        Linalg.Qr.r22_block t ~split:n1 big (e * n2);
        if not relax then begin
          ensure_rhs ews m_rows;
          fill_rhs ews.rhs_buf ~half weights.(e) data.(e);
          Linalg.Qr.apply_qt_block t ~split:n1 ews.rhs_buf big_rhs (e * n2)
        end
  in
  (match pool with
  | Some pool when n_elems > 1 ->
      ignore
        (Exec.parallel_init_ws ~pool ~label:"vf.sigma" ~ws:(elem_slot pool)
           n_elems
           (fun ews e -> process ews e))
  | _ ->
      for e = 0 to n_elems - 1 do
        process ws.seq_elem e
      done);
  if relax then
    add_relax_row ~phr:ws.phr ~scales:ws.scales ~weights ~data ~p ~n_points
      big big_rhs (n_elems * n2);
  match Linalg.Qr.least_squares_into ws.qbig big big_rhs with
  | exception Linalg.Qr.Rank_deficient _ -> None
  | sol ->
      Some
        (sigma_post ~relax ~phr:ws.phr ~phm:ws.phm ~scales:ws.scales ~n_points
           ~p sol)

let sigma_step ?pool ~ws ~opts ~poles ~points ~data ~weights ~relax () =
  match opts.relocation_kernel with
  | Dense -> sigma_step_dense ~opts ~poles ~points ~data ~weights ~relax
  | Fast -> sigma_step_fast ?pool ~ws ~opts ~poles ~points ~data ~weights ~relax ()

let relocate_poles ?pool ~ws ~opts ~poles ~points ~data ~weights () =
  let attempt relax =
    match sigma_step ?pool ~ws ~opts ~poles ~points ~data ~weights ~relax () with
    | None -> None
    | Some (c_tilde, d_tilde, sigma_rms, scale_spread) ->
        if relax && Float.abs d_tilde < 1e-8 then None
        else begin
          let a, b = Basis.state_matrices poles in
          let p = Array.length poles in
          (* the eigenproblem runs in place on the fit's scratch matrix *)
          if Linalg.Mat.rows ws.eig <> p then ws.eig <- Linalg.Mat.create p p;
          let m = ws.eig in
          for r = 0 to p - 1 do
            for c = 0 to p - 1 do
              Linalg.Mat.set m r c
                (Linalg.Mat.get a r c -. (b.(r) *. c_tilde.(c) /. d_tilde))
            done
          done;
          match Linalg.Eig.eigenvalues m with
          | exception Linalg.Eig.No_convergence -> None
          | eigs ->
              let eigs =
                if opts.max_magnitude <= 0.0 then eigs
                else
                  Array.map
                    (fun a ->
                      let m = Complex.norm a in
                      if m > opts.max_magnitude then
                        Linalg.Cx.scale (opts.max_magnitude /. m) a
                      else a)
                    eigs
              in
              let flips =
                if not opts.enforce_stable then 0
                else
                  Array.fold_left
                    (fun acc a -> if a.Complex.re >= 0.0 then acc + 1 else acc)
                    0 eigs
              in
              Some
                ( Pole.normalize ~enforce_stable:opts.enforce_stable
                    ~min_imag:opts.min_imag eigs,
                  { sigma_rms; d_tilde; scale_spread; flips } )
        end
  in
  match attempt opts.relax with
  | Some result -> Some result
  | None -> if opts.relax then attempt false else None

(* --- residue identification ------------------------------------------ *)

(* element [e]'s residues (and const/slope) from the factored residue
   matrix [t]: [Qᵀ] and back-substitution on the element's right-hand
   side, solution unscaled into [model] *)
let solve_residues ws ews t ~opts ~p ~n1 ~half ~data ~weights
    (model : Model.t) e =
  let f = data.(e) in
  ensure_rhs ews (half + Array.length f);
  if Array.length ews.sol < n1 then ews.sol <- Array.make n1 0.0;
  fill_rhs ews.rhs_buf ~half weights.(e) f;
  Linalg.Qr.apply_qt_into t ews.rhs_buf;
  match Linalg.Qr.solve_r_into t ews.rhs_buf ews.sol with
  | exception Linalg.Qr.Rank_deficient _ ->
      Log.warn (fun m -> m "residue identification rank-deficient (element %d)" e)
  | () ->
      let sol = ews.sol and scales = ws.scales in
      let ce = model.Model.coeffs.(e) in
      for c = 0 to p - 1 do
        ce.(c) <- sol.(c) *. scales.(c)
      done;
      let cursor =
        if opts.with_const then begin
          model.Model.consts.(e) <- sol.(p);
          p + 1
        end
        else p
      in
      if opts.with_slope then model.Model.slopes.(e) <- sol.(cursor) *. scales.(p)

(* element [e]'s residues: the shared factorization [t0] of the residue
   matrix under weight row 0 serves element 0 always and every element
   when all rows are the same; otherwise the element factors its own *)
let identify_element ws ews t0 ~shared ~opts ~p ~n1 ~half ~points ~data
    ~weights model e =
  let t =
    if shared || e = 0 then t0
    else begin
      let a =
        Linalg.Qr.ws_matrix ews.qa ~rows:(half + Array.length points) ~cols:n1
      in
      fill_phi0 ws a ~opts ~p ~half ~points weights.(e);
      Linalg.Qr.factor_into ews.qa a
    end
  in
  solve_residues ws ews t ~opts ~p ~n1 ~half ~data ~weights model e

(* Residue identification with fixed poles: one least-squares problem per
   element over [phi0], in the compacted real-axis layout where the data
   allow it. When every element has the same weight row (uniform
   weighting) the matrix is element-independent: it is factored once and
   each element only pays [Qᵀb] and a back-substitution — bit-identical
   to factoring it per element, since factoring is deterministic.
   Elements optionally fan out across the pool (disjoint writes, per-chunk
   scratch), bit-identical to the sequential loop. The sequential path
   allocates only the returned model. *)
let identify ?pool ~ws ~opts ~poles ~points ~data ~weights () =
  let p = Array.length poles in
  let n_points = Array.length points in
  let n_elems = Array.length data in
  prepare_basis ws ~poles ~points;
  let n1 = p + (if opts.with_const then 1 else 0) + (if opts.with_slope then 1 else 0) in
  (* the per-element least squares needs as many rows as unknowns: the
     failure of the [Qr.least_squares] it generalizes *)
  if n_elems > 0 && 2 * n_points < n1 then
    invalid_arg "Qr.factor: requires rows >= cols";
  let half = compact_half ws ~opts ~pivot:n1 ~p ~points ~data ~weights in
  let coeffs = Array.make n_elems [||] in
  for e = 0 to n_elems - 1 do
    coeffs.(e) <- Array.make p 0.0
  done;
  let model =
    {
      Model.poles;
      coeffs;
      consts = Array.make n_elems 0.0;
      slopes = Array.make n_elems 0.0;
    }
  in
  if n_elems > 0 then begin
    let shared = rows_identical weights in
    let a0 = Linalg.Qr.ws_matrix ws.shared ~rows:(half + n_points) ~cols:n1 in
    fill_phi0 ws a0 ~opts ~p ~half ~points weights.(0);
    let t0 = Linalg.Qr.factor_into ws.shared a0 in
    match pool with
    | Some pool when n_elems > 1 ->
        ignore
          (Exec.parallel_init_ws ~pool ~label:"vf.identify" ~ws:(elem_slot pool)
             n_elems (fun ews e ->
               identify_element ws ews t0 ~shared ~opts ~p ~n1 ~half ~points
                 ~data ~weights model e))
    | _ ->
        for e = 0 to n_elems - 1 do
          identify_element ws ws.seq_elem t0 ~shared ~opts ~p ~n1 ~half
            ~points ~data ~weights model e
        done
  end;
  model

let finite_model (m : Model.t) =
  Guard.finite_complex_array m.Model.poles
  && Array.for_all Guard.finite_array m.Model.coeffs
  && Guard.finite_array m.Model.consts
  && Guard.finite_array m.Model.slopes

let fit ?(opts = default_frequency_opts) ?guard ?cancel ?diag ?trace ?metrics
    ?obs ?pool ?(label = "vfit") ~poles ~points ~data () =
  if Array.length data = 0 then invalid_arg "Vfit.fit: no elements";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length points then
        invalid_arg "Vfit.fit: data/points length mismatch")
    data;
  Trace.span trace
    ~args:
      [ ("label", Trace.Str label);
        ("poles", Trace.Int (Array.length poles));
        ("points", Trace.Int (Array.length points)) ]
    "vf.fit"
  @@ fun () ->
  let weights = weights_of opts data in
  let poles = ref (Pole.normalize ~enforce_stable:opts.enforce_stable
                     ~min_imag:opts.min_imag poles) in
  let iterations_run = ref 0 in
  (* one workspace per fit: every iteration's sigma step and eigenvalue
     solve and the final identification reuse the same buffers *)
  let ws = workspace () in
  (try
     for it = 1 to opts.iterations do
       Trace.span trace ~args:[ ("it", Trace.Int it) ] "vf.relocate"
       @@ fun () ->
       Cancel.check cancel ~site:"vf.relocate";
       if Fault.should_fire "vf.spin" then Cancel.hang cancel ~site:"vf.relocate";
       match
         relocate_poles ?pool ~ws ~opts ~poles:!poles ~points ~data ~weights ()
       with
       | Some (poles', rd) ->
           iterations_run := it;
           poles := poles';
           if Fault.should_fire "vf.pole_flip" && Array.length poles' > 0
           then begin
             (* reflect one relocated pole into the right half plane —
                both members when it heads a conjugate pair, keeping
                the normalized pair layout intact *)
             let flip i =
               poles'.(i) <-
                 {
                   poles'.(i) with
                   Complex.re = Float.abs poles'.(i).Complex.re +. 1.0;
                 }
             in
             flip 0;
             if poles'.(0).Complex.im <> 0.0 && Array.length poles' > 1 then
               flip 1
           end;
           Diag.observe diag (label ^ ".sigma_rms") rd.sigma_rms;
           Diag.observe diag (label ^ ".column_scale_spread") rd.scale_spread;
           Metrics.observe metrics (label ^ ".sigma_rms") rd.sigma_rms;
           if rd.flips > 0 then
             Diag.add diag (label ^ ".unstable_pole_flips") rd.flips;
           (match obs with
           | None -> ()
           | Some _ ->
               (* the fast kernel's condensed-system QR is the most
                  condition-sensitive factorization in the stack; the
                  dense kernel has no workspace to read, so skip it *)
               (match opts.relocation_kernel with
               | Fast ->
                   Obs.rcond obs ~site:"vf.sigma_qr"
                     (Linalg.Qr.last_rcond ws.qbig)
               | Dense -> ());
               Obs.vf_iteration obs ~label ~iteration:it
                 ~sigma_rms:rd.sigma_rms ~d_tilde:rd.d_tilde
                 ~scale_spread:rd.scale_spread ~flips:rd.flips !poles)
       | None ->
           Log.debug (fun m -> m "pole relocation stalled at iteration %d" it);
           Diag.incr diag (label ^ ".stalled_relocations");
           raise Exit
     done
   with Exit -> ());
  (* post-relocation guard: finite poles, runaway detection against the
     span of the fit points, and stability repair for the injected (or
     numerically produced) right-half-plane pole that slipped past the
     in-loop normalization *)
  (match guard with
  | None -> ()
  | Some (g : Guard.t) ->
      let p = !poles in
      if g.Guard.check_finite && not (Guard.finite_complex_array p) then
        Guard.fail ~site:(label ^ ".poles") "non-finite relocated poles";
      let zmax =
        Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 points
      in
      Array.iter
        (fun a ->
          if zmax > 0.0 && Complex.norm a > g.Guard.max_pole_growth *. zmax
          then
            Guard.fail ~site:(label ^ ".poles")
              (Printf.sprintf
                 "pole runaway: |p| = %.3e exceeds %g x the largest fit \
                  point %.3e"
                 (Complex.norm a) g.Guard.max_pole_growth zmax))
        p;
      if
        opts.enforce_stable
        && Array.exists (fun a -> a.Complex.re >= 0.0) p
      then begin
        let n_unstable =
          Array.fold_left
            (fun acc a -> if a.Complex.re >= 0.0 then acc + 1 else acc)
            0 p
        in
        Diag.add diag (label ^ ".guard_stabilized") n_unstable;
        Metrics.add metrics (label ^ ".guard_stabilized") n_unstable;
        Diag.warn diag ~stage:label
          (Printf.sprintf
             "guard reflected %d unstable pole(s) into the left half plane"
             n_unstable);
        poles :=
          Pole.normalize ~enforce_stable:true ~min_imag:opts.min_imag p
      end);
  let model =
    Trace.span trace "vf.identify" @@ fun () ->
    identify ?pool ~ws ~opts ~poles:!poles ~points ~data ~weights ()
  in
  (match guard with
  | None -> ()
  | Some g ->
      if g.Guard.check_finite && not (finite_model model) then
        Guard.fail ~site:(label ^ ".model")
          "non-finite coefficients in fitted model");
  let rms, max_err = Model.errors model ~points ~data in
  Diag.observe diag (label ^ ".fit_rms") rms;
  Metrics.observe metrics (label ^ ".fit_rms") rms;
  ( model,
    {
      rms;
      max_err;
      iterations_run = !iterations_run;
      pole_count = Array.length !poles;
    } )

let fit_auto ?(opts = default_frequency_opts) ?guard ?cancel ?diag ?trace
    ?metrics ?obs ?pool ?(label = "vfit") ~make_poles ?(start = 2) ?(step = 2)
    ?(max_poles = 40) ~tol ~points ~data () =
  Trace.span trace ~args:[ ("label", Trace.Str label) ] "vf.fit_auto"
  @@ fun () ->
  (* the last per-attempt failure, kept so that a fully unsuccessful
     escalation can report *why* instead of a bare "no successful fit" *)
  let last_failure = ref None in
  let fail_no_fit () =
    let detail =
      match !last_failure with
      | Some (count, msg) ->
          Printf.sprintf " (last attempt: %d poles, %s)" count msg
      | None ->
          Printf.sprintf " (no pole count attempted: start %d > max_poles %d)"
            start max_poles
    in
    Diag.error diag ~stage:label ("fit_auto: no successful fit" ^ detail);
    invalid_arg ("Vfit.fit_auto: no successful fit" ^ detail)
  in
  let settle (model, (info : info)) =
    Diag.note diag (label ^ ".settled_poles") (string_of_int info.pole_count);
    Diag.observe diag (label ^ ".settled_rms") info.rms;
    Obs.vf_settled obs ~label ~pole_count:info.pole_count ~rms:info.rms;
    (model, info)
  in
  let rec loop count best =
    if count > max_poles then begin
      match best with Some mi -> settle mi | None -> fail_no_fit ()
    end
    else begin
      Diag.incr diag (label ^ ".attempts");
      Metrics.incr metrics (label ^ ".attempts");
      Cancel.check cancel ~site:"vf.fit_auto";
      match
        fit ~opts ?guard ?cancel ?diag ?trace ?metrics ?obs ?pool ~label
          ~poles:(make_poles count) ~points ~data ()
      with
      | exception Guard.Violation v ->
          (* a guarded failure at this count (pole runaway, non-finite
             model) may vanish with a different start-pole set — keep
             escalating instead of giving up *)
          last_failure := Some (count, Guard.describe v);
          Diag.incr diag (label ^ ".guard_violations");
          Diag.warn diag ~stage:label
            (Printf.sprintf "attempt with %d poles hit a guard: %s" count
               (Guard.describe v));
          Obs.violation obs ~site:label
            (Printf.sprintf "%d poles: %s" count (Guard.describe v));
          loop (count + step) best
      | exception Invalid_argument msg -> begin
          (* typically: too few points for this many unknowns — stop
             escalating and keep the best admissible model *)
          Log.info (fun m -> m "fit_auto: stopping at %d poles (%s)" count msg);
          last_failure := Some (count, msg);
          Diag.warn diag ~stage:label
            (Printf.sprintf "attempt with %d poles failed: %s" count msg);
          match best with Some mi -> settle mi | None -> fail_no_fit ()
        end
      | model, info ->
          Log.info (fun m ->
              m "fit_auto: %d poles -> rms %.3e (tol %.3e)" info.pole_count
                info.rms tol);
          Obs.vf_attempt obs ~label ~pole_count:info.pole_count ~rms:info.rms
            ~tol ~accepted:(info.rms <= tol);
          if info.rms <= tol then settle (model, info)
          else begin
            last_failure :=
              Some (count, Printf.sprintf "rms %.3e above tol %.3e" info.rms tol);
            let best =
              match best with
              | Some (_, bi) when bi.rms <= info.rms -> best
              | Some _ | None -> Some (model, info)
            in
            loop (count + step) best
          end
    end
  in
  loop start None

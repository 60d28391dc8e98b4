(* Workspace for repeated pencil solves sharing one (B, D) pair: the
   pencil buffer, the LU workspace and the split solution scratch are
   allocated once and fully overwritten per frequency, so a whole K×L
   TFT sweep allocates only its small n_outputs × n_inputs results. *)
type ws = {
  b : Linalg.Mat.t;
  d : Linalg.Mat.t;
  pencil : Linalg.Cmat.t;  (** G + s·C, rebuilt in place per frequency *)
  lu : Linalg.Clu.t;
  bcols : float array array;  (** the real columns of B, fixed *)
  xre : float array;  (** one (G + s·C)⁻¹ B column, split re/im *)
  xim : float array;
}

let make_ws ~b ~d =
  let n = Linalg.Mat.rows b and mi = Linalg.Mat.cols b in
  if Linalg.Mat.rows d <> n then invalid_arg "Ac.make_ws: B/D row mismatch";
  {
    b;
    d;
    pencil = Linalg.Cmat.create n n;
    lu = Linalg.Clu.workspace n;
    bcols = Array.init mi (fun j -> Linalg.Mat.col b j);
    xre = Array.make n 0.0;
    xim = Array.make n 0.0;
  }

(* each real B column is solved straight into the split scratch and
   projected through Dᵀ into column j of H, the only allocation *)
let transfer_ws ?guard ?obs ws ~g ~c ~s =
  Linalg.Cmat.lincomb_into ws.pencil Linalg.Cx.one g s c;
  Linalg.Clu.factor_into ?guard ws.lu ws.pencil;
  (match obs with
  | None -> ()
  | Some _ ->
      Obs.rcond obs ~site:"ac.pencil" (Linalg.Clu.rcond_estimate ws.lu));
  let inject = Fault.should_fire "ac.pencil_nan" in
  let h = Linalg.Cmat.create (Linalg.Mat.cols ws.d) (Array.length ws.bcols) in
  for j = 0 to Array.length ws.bcols - 1 do
    Linalg.Clu.solve_real_into ws.lu ws.bcols.(j) ~re:ws.xre ~im:ws.xim;
    if inject && j = 0 then begin
      ws.xre.(0) <- Float.nan;
      ws.xim.(0) <- Float.nan
    end;
    Guard.check_split_vec guard ~site:"ac.transfer" ~re:ws.xre ~im:ws.xim;
    Linalg.Cmat.set_col_mul_t h j ws.d ~re:ws.xre ~im:ws.xim
  done;
  h

(* equal shape and contents: a cached workspace stays valid across
   stages and circuits that share an input/output pair *)
let same_mat a b =
  a == b
  || Linalg.Mat.rows a = Linalg.Mat.rows b
     && Linalg.Mat.cols a = Linalg.Mat.cols b
     && Linalg.Mat.unsafe_data a = Linalg.Mat.unsafe_data b

let ws_matches ws ~b ~d = same_mat ws.b b && same_mat ws.d d

(* pool-owned clones of a sweep workspace, one per chunk > 0 (chunk 0
   reuses the caller's); revalidated against the caller's (B, D) so a
   warm pool can serve successive circuits *)
let sweep_ws_key : ws Exec.key = Exec.new_key ()

(* matched on [metrics] first so the unrecorded path is exactly the
   plain map — no clock reads, bit-identical results *)
let transfer_sweep ?guard ?cancel ?metrics ?obs ?pool ws ~g ~c ~ss =
  let solve ws s =
    Cancel.check cancel ~site:"ac.sweep";
    match metrics with
    | None -> transfer_ws ?guard ?obs ws ~g ~c ~s
    | Some _ ->
        let t0 = Metrics.now_if metrics in
        let h = transfer_ws ?guard ?obs ws ~g ~c ~s in
        Metrics.observe_since_ns metrics "ac.pencil_solve_ns" t0;
        h
  in
  match pool with
  | Some pool when Array.length ss > 1 && Fault.armed () = None ->
      (* frequencies are independent pencil solves — the natural parallel
         axis for a standalone sweep. Fault probes fire per solve in a
         global sequence, so an armed probe forces the sequential path to
         keep the injection site deterministic. *)
      Exec.parallel_map_ws ~pool ?cancel ?metrics ~label:"ac.sweep"
        ~ws:(fun chunk ->
          if chunk = 0 then ws
          else
            Exec.slot pool sweep_ws_key ~chunk
              ~valid:(fun w -> ws_matches w ~b:ws.b ~d:ws.d)
              ~make:(fun () -> make_ws ~b:ws.b ~d:ws.d))
        (fun w s -> solve w s)
        ss
  | _ -> Array.map (solve ws) ss

(* the sparse twin: the same per-point sweep over a compiled pattern,
   one Spclu factorization per grid point. The LU workspace replays
   its recorded reaches after the first point, so a warm point costs
   the numeric factorization and the solves, and allocates only H. *)
module Sparse = struct
  type ws = {
    pat : Linalg.Sp.pattern;
    b : Linalg.Mat.t;
    d : Linalg.Mat.t;
    pencil : Linalg.Sp.ct;  (** G + s·C, refilled in place per frequency *)
    lu : Linalg.Spclu.t;
    bcols : float array array;
    xre : float array;
    xim : float array;
  }

  let make_ws ~pat ~b ~d =
    let n = pat.Linalg.Sp.nrows in
    if Linalg.Mat.rows b <> n || Linalg.Mat.rows d <> n then
      invalid_arg "Ac.Sparse.make_ws: B/D row dimension mismatch";
    {
      pat;
      b;
      d;
      pencil = Linalg.Sp.ccreate pat;
      lu = Linalg.Spclu.workspace pat;
      bcols = Array.init (Linalg.Mat.cols b) (fun j -> Linalg.Mat.col b j);
      xre = Array.make n 0.0;
      xim = Array.make n 0.0;
    }

  let ws_matches ws ~pat ~b ~d = ws.pat == pat && same_mat ws.b b && same_mat ws.d d

  let transfer_ws ?guard ?obs ws ~g ~c ~s =
    Linalg.Sp.pencil_into ws.pencil g c s;
    Linalg.Spclu.factor_into ?guard ws.lu ws.pencil;
    (match obs with
    | None -> ()
    | Some _ ->
        Obs.rcond obs ~site:"ac.pencil" (Linalg.Spclu.rcond_estimate ws.lu));
    let inject = Fault.should_fire "ac.pencil_nan" in
    let h = Linalg.Cmat.create (Linalg.Mat.cols ws.d) (Array.length ws.bcols) in
    for j = 0 to Array.length ws.bcols - 1 do
      Linalg.Spclu.solve_real_into ws.lu ws.bcols.(j) ~re:ws.xre ~im:ws.xim;
      if inject && j = 0 then begin
        ws.xre.(0) <- Float.nan;
        ws.xim.(0) <- Float.nan
      end;
      Guard.check_split_vec guard ~site:"ac.transfer" ~re:ws.xre ~im:ws.xim;
      Linalg.Cmat.set_col_mul_t h j ws.d ~re:ws.xre ~im:ws.xim
    done;
    h

  let transfer_sweep ?guard ?cancel ?metrics ?obs ws ~g ~c ~ss =
    Array.map
      (fun s ->
        Cancel.check cancel ~site:"ac.sweep";
        match metrics with
        | None -> transfer_ws ?guard ?obs ws ~g ~c ~s
        | Some _ ->
            let t0 = Metrics.now_if metrics in
            let h = transfer_ws ?guard ?obs ws ~g ~c ~s in
            Metrics.observe_since_ns metrics "ac.pencil_solve_ns" t0;
            h)
      ss
end

let transfer_at ~g ~c ~b ~d ~s = transfer_ws (make_ws ~b ~d) ~g ~c ~s

let sweep ?pool mna ~at ~freqs_hz =
  let ev = Mna.eval mna ~with_matrices:true ~time:0.0 at in
  let g, c =
    match (ev.Mna.g_mat, ev.Mna.c_mat) with
    | Some g, Some c -> (g, c)
    | _, _ -> assert false
  in
  let ws = make_ws ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna) in
  transfer_sweep ?pool ws ~g ~c ~ss:(Array.map Signal.Grid.s_of_hz freqs_hz)

let sweep_siso ?pool mna ~at ~freqs_hz =
  Array.map (fun h -> Linalg.Cmat.get h 0 0) (sweep ?pool mna ~at ~freqs_hz)

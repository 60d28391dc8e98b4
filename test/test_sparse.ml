(* The sparse tier's differential battery: every sparse-backend layer is
   checked against its dense twin on randomized circuits — CSC assembly
   against the dense Jacobians entrywise, sparse LU against Lu/Clu,
   rational-Krylov sweeps against the dense AC pencil, and the full
   pipeline across both backends. Properties are driven by Oracle.Gen's
   {seed; size} records, so failures shrink toward small circuits and
   print a reproducible case; QCHECK_SEED reproduces a whole run. *)

module Sp = Linalg.Sp
module Mna = Engine.Mna

let check_close tol = Alcotest.(check (float tol))

(* deterministic per-case test state: perturb the DC operating point so
   nonlinear elements are exercised off their bias point *)
let perturbed_state st mna at =
  let n = Mna.size mna in
  Array.init n (fun k -> at.(k) +. (0.2 *. (Random.State.float st 1.0 -. 0.5)))

let mna_of (netlist, input, output) =
  Mna.build ~inputs:[ input ] ~outputs:[ output ] netlist

(* the sparse tier's fitting band for random mesh elements
   (r ∈ [1e2, 1e4], c ∈ [1e-10, 1e-8] ⇒ ω ∈ ~[1e4, 1e8] rad/s) *)
let mesh_freqs ~points =
  Signal.Grid.frequencies_hz ~f_min:1e2 ~f_max:1e9 ~points

(* ---------------- assembly: CSC refill = dense Jacobians ---------------- *)

(* the compiled pattern accumulates stamps in the same order as the
   dense eval, so agreement is exact — and every dense entry outside
   the pattern must be exactly zero *)
let prop_assembly_parity =
  QCheck.Test.make ~count:50 ~name:"sparse assembly equals dense jacobians"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let mna = mna_of (Oracle.Gen.rc_grid s) in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let state = perturbed_state st mna at in
      let ev = Mna.eval mna ~time:0.0 state in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 state in
      let g = Option.get ev.Mna.g_mat and c = Option.get ev.Mna.c_mat in
      let n = Mna.size mna in
      let worst = ref 0.0 and site = ref (-1, -1) in
      for r = 0 to n - 1 do
        for cl = 0 to n - 1 do
          let dg = Float.abs (Sp.get sev.Mna.sg r cl -. Linalg.Mat.get g r cl)
          and dc = Float.abs (Sp.get sev.Mna.sc r cl -. Linalg.Mat.get c r cl) in
          let d = Float.max dg dc in
          if d > !worst then begin
            worst := d;
            site := (r, cl)
          end
        done
      done;
      (* residual pieces ride the same stamps: compare them too *)
      for k = 0 to n - 1 do
        worst := Float.max !worst (Float.abs (sev.Mna.si_vec.(k) -. ev.Mna.i_vec.(k)));
        worst := Float.max !worst (Float.abs (sev.Mna.sq_vec.(k) -. ev.Mna.q_vec.(k)))
      done;
      if !worst = 0.0 then true
      else
        let r, cl = !site in
        QCheck.Test.fail_reportf "assembly mismatch %.3e at (%d,%d), n=%d"
          !worst r cl n)

(* ---------------- sparse LU vs dense LU ---------------- *)

let rel_err_vec x y =
  let scale =
    Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1e-300 y
  in
  let worst = ref 0.0 in
  Array.iteri
    (fun k v -> worst := Float.max !worst (Float.abs (v -. y.(k)) /. scale))
    x;
  !worst

let prop_splu_vs_lu =
  QCheck.Test.make ~count:50 ~name:"sparse real lu matches dense lu"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let mna = mna_of (Oracle.Gen.rc_mesh s) in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
      let ev = Mna.eval mna ~time:0.0 at in
      let g = Option.get ev.Mna.g_mat in
      let n = Mna.size mna in
      let rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let xs = Linalg.Splu.solve (Linalg.Splu.factor sev.Mna.sg) rhs in
      let xd = Linalg.Lu.solve (Linalg.Lu.factor (Linalg.Mat.copy g)) rhs in
      let err = rel_err_vec xs xd in
      if err <= 1e-12 then true
      else QCheck.Test.fail_reportf "splu vs lu rel err %.3e (n=%d)" err n)

let prop_spclu_vs_clu =
  QCheck.Test.make ~count:50 ~name:"sparse complex lu matches dense clu"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let mna = mna_of (Oracle.Gen.rc_mesh s) in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
      let ev = Mna.eval mna ~time:0.0 at in
      let g = Option.get ev.Mna.g_mat and c = Option.get ev.Mna.c_mat in
      let n = Mna.size mna in
      let sv =
        { Complex.re = 0.0; im = 2.0 *. Float.pi *. (10.0 ** (4.0 +. (4.0 *. Random.State.float st 1.0))) }
      in
      (* sparse pencil over the shared pattern *)
      let pencil = Sp.ccreate (Mna.sparse_pattern ctx) in
      Sp.pencil_into pencil sev.Mna.sg sev.Mna.sc sv;
      let rhs =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2.0 -. 1.0;
              im = Random.State.float st 2.0 -. 1.0;
            })
      in
      let xs = Linalg.Spclu.solve (Linalg.Spclu.factor pencil) rhs in
      (* dense pencil from the dense Jacobians *)
      let dense =
        Linalg.Cmat.init n n (fun r cl ->
            Complex.add
              { Complex.re = Linalg.Mat.get g r cl; im = 0.0 }
              (Complex.mul sv { Complex.re = Linalg.Mat.get c r cl; im = 0.0 }))
      in
      let xd = Linalg.Clu.solve (Linalg.Clu.factor dense) rhs in
      let scale =
        Array.fold_left (fun a z -> Float.max a (Complex.norm z)) 1e-300 xd
      in
      let err =
        ref 0.0
      in
      Array.iteri
        (fun k z ->
          err := Float.max !err (Complex.norm (Complex.sub z xd.(k)) /. scale))
        xs;
      if !err <= 1e-12 then true
      else QCheck.Test.fail_reportf "spclu vs clu rel err %.3e (n=%d)" !err n)

(* ---------------- rational Krylov vs dense AC sweep ---------------- *)

let prop_krylov_vs_ac =
  QCheck.Test.make ~count:25 ~name:"rational-krylov sweep matches dense ac"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let ((_, _, _) as case) = Oracle.Gen.rc_mesh s in
      let mna = mna_of case in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let freqs = mesh_freqs ~points:24 in
      let hd = Engine.Ac.sweep_siso mna ~at ~freqs_hz:freqs in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
      let ws =
        Engine.Ratkrylov.make_ws
          ~pat:(Mna.sparse_pattern ctx)
          ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna)
      in
      let ss = Array.map Signal.Grid.s_of_hz freqs in
      let hs, _ =
        Engine.Ratkrylov.sweep ws ~g:sev.Mna.sg ~c:sev.Mna.sc ~ss
      in
      let scale =
        Array.fold_left (fun a z -> Float.max a (Complex.norm z)) 1e-300 hd
      in
      let err = ref 0.0 in
      Array.iteri
        (fun l z ->
          err :=
            Float.max !err
              (Complex.norm (Complex.sub (Linalg.Cmat.get hs.(l) 0 0) z)
              /. scale))
        hd;
      if !err <= 1e-8 then true
      else
        QCheck.Test.fail_reportf "krylov vs ac trajectory rel err %.3e" !err)

(* ---------------- symbolic replay = fresh factorization ---------------- *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* a random square pattern (full diagonal plus ~3 off-diagonals per
   column) and a sequence of value sets over it: diagonally dominant
   sets keep the diagonal pivots, free sets make the threshold rule
   pick other rows, so a reused workspace both replays and repivots *)
let replay_case (s : Oracle.Gen.seeded) =
  let st = Oracle.Gen.rand_state s in
  let n = 2 + Random.State.int st (4 + (6 * s.Oracle.Gen.size)) in
  let trips = ref [] in
  for c = 0 to n - 1 do
    trips := (c, c, 1.0) :: !trips;
    for _ = 1 to 3 do
      trips := (Random.State.int st n, c, 1.0) :: !trips
    done
  done;
  let pat = (Sp.of_triplets ~nrows:n ~ncols:n (Array.of_list !trips)).Sp.pat in
  let nz = Sp.nnz pat in
  let value_set () =
    let v = Array.init nz (fun _ -> Random.State.float st 2.0 -. 1.0) in
    if Random.State.bool st then
      for c = 0 to n - 1 do
        match Sp.find pat c c with
        | Some k -> v.(k) <- v.(k) +. float_of_int (2 * (n + 1))
        | None -> ()
      done;
    v
  in
  let sets = Array.init 6 (fun _ -> (value_set (), value_set ())) in
  (st, pat, sets)

(* factor, then solve a fixed right-hand side; Singular keeps its
   payload so a failing reuse must fail the same way as a fresh one *)
let outcome factor factors solve ws =
  match factor ws with
  | () -> Ok (factors ws, solve ws)
  | exception Linalg.Splu.Singular { pivot_index; magnitude } ->
      Error (pivot_index, Int64.bits_of_float magnitude)
  | exception Linalg.Spclu.Singular { pivot_index; magnitude } ->
      Error (pivot_index, Int64.bits_of_float magnitude)

let prop_splu_replay =
  QCheck.Test.make ~count:60
    ~name:"splu workspace reuse equals fresh factorization, bit for bit"
    (Oracle.Gen.arb ~max_size:4 ())
    (fun s ->
      let st, pat, sets = replay_case s in
      let n = pat.Sp.nrows in
      let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let warm = Linalg.Splu.workspace pat in
      let run ws v =
        outcome
          (fun ws -> Linalg.Splu.factor_into ws { Sp.pat; v })
          Linalg.Splu.factors
          (fun ws -> Linalg.Splu.solve ws b)
          ws
      in
      Array.for_all
        (fun (v, _) ->
          match (run warm v, run (Linalg.Splu.workspace pat) v) with
          | Ok (fw, xw), Ok (ff, xf) ->
              let open Linalg.Splu in
              fw.pinv = ff.pinv && fw.lp = ff.lp && fw.li = ff.li
              && fw.up = ff.up && fw.ui = ff.ui && same_bits fw.lx ff.lx
              && same_bits fw.ux ff.ux && same_bits xw xf
              || QCheck.Test.fail_reportf "replayed factors differ (n=%d)" n
          | Error a, Error b -> a = b
          | _ -> QCheck.Test.fail_reportf "replay and fresh disagree on Singular")
        sets)

let prop_spclu_replay =
  QCheck.Test.make ~count:60
    ~name:"spclu workspace reuse equals fresh factorization, bit for bit"
    (Oracle.Gen.arb ~max_size:4 ())
    (fun s ->
      let st, pat, sets = replay_case s in
      let n = pat.Sp.nrows in
      let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let re = Array.make n 0.0 and im = Array.make n 0.0 in
      let warm = Linalg.Spclu.workspace pat in
      let run ws (vr, vi) =
        outcome
          (fun ws ->
            Linalg.Spclu.factor_into ws { Sp.cpat = pat; re = vr; im = vi })
          Linalg.Spclu.factors
          (fun ws ->
            Linalg.Spclu.solve_real_into ws b ~re ~im;
            (Array.copy re, Array.copy im))
          ws
      in
      Array.for_all
        (fun v ->
          match (run warm v, run (Linalg.Spclu.workspace pat) v) with
          | Ok (fw, (rw, iw)), Ok (ff, (rf, if_)) ->
              let open Linalg.Spclu in
              fw.pinv = ff.pinv && fw.lp = ff.lp && fw.li = ff.li
              && fw.up = ff.up && fw.ui = ff.ui && same_bits fw.lre ff.lre
              && same_bits fw.lim ff.lim && same_bits fw.ure ff.ure
              && same_bits fw.uim ff.uim && same_bits rw rf && same_bits iw if_
              || QCheck.Test.fail_reportf "replayed factors differ (n=%d)" n
          | Error a, Error b -> a = b
          | _ -> QCheck.Test.fail_reportf "replay and fresh disagree on Singular")
        sets)

(* a dense 3×3 pattern: the first matrix keeps its diagonal pivots, the
   second has a tiny diagonal that forces other pivot rows, the third
   returns to the first's pivots. Every factorization on the reused
   workspace must equal a fresh one's, and the solves must be right. *)
let test_replay_repivot () =
  let trips v =
    Array.init 9 (fun k ->
        let r = k mod 3 and c = k / 3 in
        (r, c, v.(r).(c)))
  in
  let dominant =
    [| [| 4.0; 1.0; 0.5 |]; [| 1.0; 5.0; 1.0 |]; [| 0.5; 1.0; 6.0 |] |]
  in
  let tiny_diag =
    [| [| 1e-3; 2.0; 0.5 |]; [| 3.0; 1e-3; 1.0 |]; [| 0.5; 1.0; 1e-3 |] |]
  in
  let a0 = Sp.of_triplets ~nrows:3 ~ncols:3 (trips dominant) in
  let pat = a0.Sp.pat in
  let with_values m =
    { Sp.pat; v = (Sp.of_triplets ~nrows:3 ~ncols:3 (trips m)).Sp.v }
  in
  let ws = Linalg.Splu.workspace pat in
  let pivots = ref [] in
  (* an armed plan that never fires counts probe invocations: one per
     factor_into call, the restarted one included *)
  Fault.arm_exact ~site:"sp.singular" ~fire_at:max_int ~burst:0 ();
  Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) @@ fun () ->
  List.iter
    (fun m ->
      let a = with_values m in
      Linalg.Splu.factor_into ws a;
      let fresh = Linalg.Splu.factor a in
      let fw = Linalg.Splu.factors ws and ff = Linalg.Splu.factors fresh in
      Alcotest.(check (array int)) "pivots as fresh" ff.Linalg.Splu.pinv
        fw.Linalg.Splu.pinv;
      Alcotest.(check bool) "L and U bits as fresh" true
        (fw.Linalg.Splu.li = ff.Linalg.Splu.li
        && same_bits fw.Linalg.Splu.lx ff.Linalg.Splu.lx
        && fw.Linalg.Splu.ui = ff.Linalg.Splu.ui
        && same_bits fw.Linalg.Splu.ux ff.Linalg.Splu.ux);
      let b = [| 1.0; -2.0; 0.5 |] in
      let x = Linalg.Splu.solve ws b in
      let r = Sp.mulv a x in
      Array.iteri (fun i bi -> check_close 1e-12 "residual" bi r.(i)) b;
      pivots := fw.Linalg.Splu.pinv :: !pivots)
    [ dominant; tiny_diag; dominant ];
  Alcotest.(check (option int)) "sp.singular probed once per call"
    (Some 6)
    (Option.map
       (fun (st : Fault.stats) -> st.Fault.calls)
       (Fault.stats_for "sp.singular"));
  match List.rev !pivots with
  | [ p0; p1; p2 ] ->
      Alcotest.(check bool) "second matrix pivots elsewhere" true (p0 <> p1);
      Alcotest.(check (array int)) "third matrix back on the first's pivots" p0
        p2
  | _ -> assert false

let minor_words_of = Test_linalg.minor_words_of

let grid_pencil () =
  let rows = 6 and cols = 6 in
  let mna =
    Mna.build
      ~inputs:[ Circuits.Library.grid_input ]
      ~outputs:[ Circuits.Library.grid_output ~rows ~cols ]
      (Circuits.Library.rc_grid ~rows ~cols ())
  in
  let ctx = Mna.sparse_ctx mna in
  let at = Engine.Dc.solve ~backend:Mna.Sparse mna in
  (mna, ctx, Mna.eval_sparse mna ctx ~time:0.0 at)

let test_warm_lu_allocation_free () =
  let mna, ctx, sev = grid_pencil () in
  let pat = Mna.sparse_pattern ctx and n = Mna.size mna in
  let b = Array.init n (fun i -> float_of_int (i mod 3) -. 1.0) in
  let x = Array.make n 0.0 and re = Array.make n 0.0 and im = Array.make n 0.0 in
  let rws = Linalg.Splu.workspace pat in
  let real () =
    Linalg.Splu.factor_into rws sev.Mna.sg;
    Linalg.Splu.solve_into rws b x
  in
  real ();
  Alcotest.(check (float 0.0)) "splu factor_into + solve_into words" 0.0
    (minor_words_of real);
  let pencil = Sp.ccreate pat in
  let cws = Linalg.Spclu.workspace pat in
  let cplx () =
    Sp.pencil_into pencil sev.Mna.sg sev.Mna.sc { Complex.re = 0.0; im = 6.3e5 };
    Linalg.Spclu.factor_into cws pencil;
    Linalg.Spclu.solve_real_into cws b ~re ~im
  in
  cplx ();
  Alcotest.(check (float 0.0)) "spclu factor_into + solve_real_into words" 0.0
    (minor_words_of cplx);
  let ws =
    Engine.Ac.Sparse.make_ws ~pat ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna)
  in
  let s = { Complex.re = 0.0; im = 6.3e5 } in
  let point () =
    ignore (Engine.Ac.Sparse.transfer_ws ws ~g:sev.Mna.sg ~c:sev.Mna.sc ~s)
  in
  point ();
  Alcotest.(check (float 0.0)) "a warm sweep point allocates only its output"
    (minor_words_of (fun () -> ignore (Linalg.Cmat.create 1 1)))
    (minor_words_of point)

(* ---------------- per-point sparse sweep vs dense AC sweep ---------------- *)

let prop_sparse_sweep_vs_ac =
  QCheck.Test.make ~count:25 ~name:"sparse per-point sweep matches dense ac"
    (Oracle.Gen.arb ~max_size:3 ())
    (fun s ->
      let mna = mna_of (Oracle.Gen.rc_mesh s) in
      let ctx = Mna.sparse_ctx mna in
      let at = Engine.Dc.solve mna in
      let ev = Mna.eval mna ~with_matrices:true ~time:0.0 at in
      let g = Option.get ev.Mna.g_mat and c = Option.get ev.Mna.c_mat in
      let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
      let b = Mna.b_matrix mna and d = Mna.d_matrix mna in
      let ss =
        Array.append
          (Array.map Signal.Grid.s_of_hz (mesh_freqs ~points:24))
          [| Complex.zero |]
      in
      let hd = Engine.Ac.transfer_sweep (Engine.Ac.make_ws ~b ~d) ~g ~c ~ss in
      let hs =
        Engine.Ac.Sparse.transfer_sweep
          (Engine.Ac.Sparse.make_ws ~pat:(Mna.sparse_pattern ctx) ~b ~d)
          ~g:sev.Mna.sg ~c:sev.Mna.sc ~ss
      in
      let get hm = Linalg.Cmat.get hm 0 0 in
      let scale =
        Array.fold_left (fun a hm -> Float.max a (Complex.norm (get hm))) 1e-300 hd
      in
      let err = ref 0.0 in
      Array.iteri
        (fun l hm ->
          let d = Complex.norm (Complex.sub (get hs.(l)) (get hm)) in
          err := Float.max !err (d /. scale))
        hd;
      if !err <= 1e-10 then true
      else
        QCheck.Test.fail_reportf "sparse vs dense trajectory rel err %.3e" !err)

(* ---------------- full pipeline, both backends ---------------- *)

(* a linear mesh is inside the model class, so both extractions converge
   to machine-precision fits of transfer trajectories that agree to
   ~1e-10 — the two model surfaces must then coincide far below the RVF
   error bound *)
let prop_pipeline_backend_parity =
  QCheck.Test.make ~count:8 ~name:"pipeline sparse backend matches dense"
    (Oracle.Gen.arb ~max_size:2 ())
    (fun s ->
      let netlist, input, output = Oracle.Gen.rc_mesh s in
      let f_train = 1e2 in
      let t_stop = 1.0 /. f_train in
      let steps = 128 in
      let training =
        {
          Tft_rvf.Pipeline.wave =
            Circuit.Netlist.Sine
              { offset = 0.5; ampl = 0.4; freq = f_train; phase = 0.0 };
          t_stop;
          dt = t_stop /. float_of_int steps;
          snapshot_every = 8;
        }
      in
      let config backend =
        Tft_rvf.Pipeline.default_config_for ~points:16 ~backend ~f_min:1e2
          ~f_max:1e9 ~training ()
      in
      let extract backend =
        Tft_rvf.Pipeline.extract ~config:(config backend) ~netlist ~input
          ~output ()
      in
      let md = extract Mna.Dense and ms = extract Mna.Sparse in
      let ss = Array.map Signal.Grid.s_of_hz (mesh_freqs ~points:12) in
      let scale = ref 1e-300 and err = ref 0.0 in
      Array.iter
        (fun x ->
          Array.iter
            (fun sv ->
              let hd =
                Hammerstein.Hmodel.transfer md.Tft_rvf.Pipeline.model ~x ~s:sv
              in
              let hs =
                Hammerstein.Hmodel.transfer ms.Tft_rvf.Pipeline.model ~x ~s:sv
              in
              scale := Float.max !scale (Complex.norm hd);
              err := Float.max !err (Complex.norm (Complex.sub hs hd)))
            ss)
        [| 0.2; 0.5; 0.8 |];
      if !err /. !scale <= 1e-6 then true
      else
        QCheck.Test.fail_reportf "model surfaces differ by %.3e (rel)"
          (!err /. !scale))

(* ---------------- deterministic edge cases ---------------- *)

(* the 1×1 "mesh" degenerates to a single RC — the smallest pattern the
   compiler and the Krylov sweep must survive *)
let test_single_stage_ladder () =
  let netlist = Circuits.Library.rc_ladder_n ~stages:1 () in
  let mna =
    Mna.build ~inputs:[ "Vin" ]
      ~outputs:[ Circuits.Library.rc_ladder_output 1 ]
      netlist
  in
  let ctx = Mna.sparse_ctx mna in
  let at = Engine.Dc.solve ~backend:Mna.Sparse mna in
  let sev = Mna.eval_sparse mna ctx ~time:0.0 at in
  let ws =
    Engine.Ratkrylov.make_ws
      ~pat:(Mna.sparse_pattern ctx)
      ~b:(Mna.b_matrix mna) ~d:(Mna.d_matrix mna)
  in
  let h, _ =
    Engine.Ratkrylov.sweep ws ~g:sev.Mna.sg ~c:sev.Mna.sc
      ~ss:[| Complex.zero |]
  in
  check_close 1e-12 "dc gain" 1.0 (Linalg.Cmat.get h.(0) 0 0).Complex.re

(* a singular system must raise the typed sparse exception, mirroring
   the dense Lu.Singular contract the pipeline's escalation relies on *)
let test_splu_singular_typed () =
  let sing =
    Sp.of_triplets ~nrows:2 ~ncols:2 [| (0, 0, 1.0); (1, 0, 1.0) |]
  in
  Alcotest.(check bool) "raises Singular" true
    (match Linalg.Splu.factor sing with
    | exception Linalg.Splu.Singular _ -> true
    | _ -> false)

(* sparse transient backend: snapshots carry placeholder Jacobians and
   the sparse dataset path re-stamps them — the state trajectories of
   the two backends must agree to Newton tolerance *)
let test_tran_backend_parity () =
  let netlist = Circuits.Library.rc_grid ~rows:4 ~cols:4 () in
  let mna =
    Mna.build
      ~inputs:[ Circuits.Library.grid_input ]
      ~outputs:[ Circuits.Library.grid_output ~rows:4 ~cols:4 ]
      netlist
  in
  let t_stop = 1e-4 in
  let dt = 1e-6 in
  let rd = Engine.Tran.run mna ~t_stop ~dt in
  let rs = Engine.Tran.run ~backend:Mna.Sparse mna ~t_stop ~dt in
  Alcotest.(check int) "same snapshot count"
    (Array.length rd.Engine.Tran.snapshots)
    (Array.length rs.Engine.Tran.snapshots);
  let worst = ref 0.0 in
  Array.iteri
    (fun k (sd : Engine.Tran.snapshot) ->
      let sp = rs.Engine.Tran.snapshots.(k) in
      Array.iteri
        (fun j v ->
          worst :=
            Float.max !worst (Float.abs (v -. sp.Engine.Tran.state.(j))))
        sd.Engine.Tran.state;
      Alcotest.(check bool) "sparse snapshots carry placeholders" true
        (Linalg.Mat.rows sp.Engine.Tran.g_mat = 0))
    rd.Engine.Tran.snapshots;
  Alcotest.(check bool)
    (Printf.sprintf "state trajectories agree (%.3e)" !worst)
    true (!worst <= 1e-9);
  (* re-stamping placeholders from the recorded states gives back
     exactly the Jacobians the dense run captured *)
  let blanked =
    Array.map
      (fun (sd : Engine.Tran.snapshot) ->
        {
          sd with
          Engine.Tran.g_mat = Linalg.Mat.create 0 0;
          c_mat = Linalg.Mat.create 0 0;
        })
      rd.Engine.Tran.snapshots
  in
  let mat_bits m = Array.map Int64.bits_of_float (Linalg.Mat.unsafe_data m) in
  Array.iter2
    (fun (sd : Engine.Tran.snapshot) (sw : Engine.Tran.snapshot) ->
      Alcotest.(check bool) "re-stamped Jacobians bit-identical" true
        (Linalg.Mat.rows sw.Engine.Tran.g_mat = Linalg.Mat.rows sd.Engine.Tran.g_mat
        && mat_bits sw.Engine.Tran.g_mat = mat_bits sd.Engine.Tran.g_mat
        && mat_bits sw.Engine.Tran.c_mat = mat_bits sd.Engine.Tran.c_mat))
    rd.Engine.Tran.snapshots
    (Engine.Tran.with_jacobians mna blanked)

(* the production default is the sparse backend; the dense one is its
   reference. On the paper's buffer the two models must simulate within
   1e-12 V of each other over a 4 ns sine spanning the training range
   (the pivot orders differ, so bit identity is not expected), and the
   exported equations must be the same text *)
let test_buffer_default_matches_dense () =
  let config = Tft_rvf.Pipeline.buffer_config () in
  Alcotest.(check bool) "buffer default is sparse" true
    (config.Tft_rvf.Pipeline.backend = Mna.Sparse);
  let sparse = Tft_rvf.Pipeline.extract_buffer ~config () in
  let dense =
    Tft_rvf.Pipeline.extract_buffer
      ~config:{ config with Tft_rvf.Pipeline.backend = Mna.Dense }
      ()
  in
  let lo, hi = sparse.Tft_rvf.Pipeline.rvf.Rvf.x_range in
  let u =
    Signal.Source.sine ~offset:(0.5 *. (lo +. hi)) ~ampl:(0.5 *. (hi -. lo))
      ~freq:2.5e8 ()
  in
  let sim (o : Tft_rvf.Pipeline.outcome) =
    Hammerstein.Hmodel.simulate o.Tft_rvf.Pipeline.model ~u ~t_stop:4e-9
      ~dt:1e-11
  in
  let ws = sim sparse and wd = sim dense in
  let worst = ref 0.0 in
  Array.iteri
    (fun k v ->
      worst := Float.max !worst (Float.abs (v -. wd.Signal.Waveform.values.(k))))
    ws.Signal.Waveform.values;
  Alcotest.(check bool)
    (Printf.sprintf "models agree within 1e-12 V (%.3e)" !worst)
    true (!worst <= 1e-12);
  Alcotest.(check string) "equations text identical"
    (Hammerstein.Hmodel.equations dense.Tft_rvf.Pipeline.model)
    (Hammerstein.Hmodel.equations sparse.Tft_rvf.Pipeline.model)

(* the sparse extraction fans snapshots across the pool with one
   replaying LU workspace per domain; the dataset and the model must not
   depend on the domain count *)
let test_sparse_extraction_domains () =
  let rows = 4 and cols = 4 in
  let netlist = Circuits.Library.rc_grid ~rows ~cols ~diode_every:5 () in
  let f_train = 1e4 in
  let training =
    {
      Tft_rvf.Pipeline.wave =
        Circuit.Netlist.Sine
          { offset = 1.0; ampl = 1.0; freq = f_train; phase = 0.0 };
      t_stop = 1.0 /. f_train;
      dt = 1.0 /. f_train /. 96.0;
      snapshot_every = 4;
    }
  in
  let extract domains =
    let config =
      Tft_rvf.Pipeline.default_config_for ~points:12 ~domains
        ~backend:Mna.Sparse ~f_min:1e2 ~f_max:1e9 ~training ()
    in
    Tft_rvf.Pipeline.extract ~config ~netlist ~input:Circuits.Library.grid_input
      ~output:(Circuits.Library.grid_output ~rows ~cols)
      ()
  in
  let o1 = extract 1 and o2 = extract 2 in
  let cbits hm =
    (Linalg.Cmat.unsafe_re hm, Linalg.Cmat.unsafe_im hm)
  in
  let same_cmat a b =
    let ar, ai = cbits a and br, bi = cbits b in
    same_bits ar br && same_bits ai bi
  in
  let s1 = o1.Tft_rvf.Pipeline.dataset.Tft.Dataset.samples
  and s2 = o2.Tft_rvf.Pipeline.dataset.Tft.Dataset.samples in
  Alcotest.(check int) "same sample count" (Array.length s1) (Array.length s2);
  Alcotest.(check bool) "datasets bit-identical" true
    (Array.for_all2
       (fun (a : Tft.Dataset.sample) (b : Tft.Dataset.sample) ->
         same_cmat a.Tft.Dataset.h0 b.Tft.Dataset.h0
         && Array.for_all2 same_cmat a.Tft.Dataset.h b.Tft.Dataset.h)
       s1 s2);
  Alcotest.(check string) "models identical"
    (Hammerstein.Hmodel.equations o1.Tft_rvf.Pipeline.model)
    (Hammerstein.Hmodel.equations o2.Tft_rvf.Pipeline.model)

let suite =
  [
    Alcotest.test_case "single-stage sparse ladder" `Quick
      test_single_stage_ladder;
    Alcotest.test_case "splu singular is typed" `Quick
      test_splu_singular_typed;
    Alcotest.test_case "transient backend parity" `Quick
      test_tran_backend_parity;
    Alcotest.test_case "replay repivots on a changed pivot" `Quick
      test_replay_repivot;
    Alcotest.test_case "warm sparse lu allocates nothing" `Quick
      test_warm_lu_allocation_free;
    Alcotest.test_case "sparse extraction bit-identical across domains" `Quick
      test_sparse_extraction_domains;
    Alcotest.test_case "buffer default backend matches dense" `Slow
      test_buffer_default_matches_dense;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        prop_assembly_parity;
        prop_splu_vs_lu;
        prop_spclu_vs_clu;
        prop_krylov_vs_ac;
        prop_splu_replay;
        prop_spclu_replay;
        prop_sparse_sweep_vs_ac;
        prop_pipeline_backend_parity;
      ]

(* Unit and property tests for the dense linear algebra kernels. *)

let check_float = Alcotest.(check (float 1e-9))

let mat_of = Linalg.Mat.of_arrays

let rand_state seed = Random.State.make [| seed; 0x5eed |]

(* a random diagonally-dominant matrix is comfortably invertible *)
let random_dd_matrix st n =
  let a = Linalg.Mat.random st n n in
  for i = 0 to n - 1 do
    Linalg.Mat.update a i i (fun x -> x +. float_of_int n)
  done;
  a

(* ---------------- Vec ---------------- *)

let test_vec_dot () =
  check_float "dot" 32.0 (Linalg.Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_vec_norms () =
  check_float "norm2" 5.0 (Linalg.Vec.norm2 [| 3.0; 4.0 |]);
  check_float "norm_inf" 4.0 (Linalg.Vec.norm_inf [| 3.0; -4.0 |]);
  check_float "dist_inf" 7.0 (Linalg.Vec.dist_inf [| 3.0; -4.0 |] [| 3.0; 3.0 |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Linalg.Vec.axpy 2.0 [| 1.0; 2.0 |] y;
  check_float "axpy0" 3.0 y.(0);
  check_float "axpy1" 5.0 y.(1)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec: dimension mismatch")
    (fun () -> ignore (Linalg.Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

(* ---------------- Mat ---------------- *)

let test_mat_mul_identity () =
  let st = rand_state 1 in
  let a = Linalg.Mat.random st 4 4 in
  let i = Linalg.Mat.identity 4 in
  Alcotest.(check bool)
    "A*I = A" true
    (Linalg.Mat.approx_equal (Linalg.Mat.mul a i) a)

let test_mat_mul_assoc () =
  let st = rand_state 2 in
  let a = Linalg.Mat.random st 3 4 in
  let b = Linalg.Mat.random st 4 5 in
  let c = Linalg.Mat.random st 5 2 in
  let lhs = Linalg.Mat.mul (Linalg.Mat.mul a b) c in
  let rhs = Linalg.Mat.mul a (Linalg.Mat.mul b c) in
  Alcotest.(check bool) "(AB)C = A(BC)" true (Linalg.Mat.approx_equal ~tol:1e-12 lhs rhs)

let test_mat_transpose_involution () =
  let st = rand_state 3 in
  let a = Linalg.Mat.random st 5 3 in
  Alcotest.(check bool)
    "transpose twice" true
    (Linalg.Mat.approx_equal (Linalg.Mat.transpose (Linalg.Mat.transpose a)) a)

let test_mat_mulv_t () =
  let st = rand_state 4 in
  let a = Linalg.Mat.random st 4 3 in
  let x = [| 1.0; -2.0; 0.5; 3.0 |] in
  let expected = Linalg.Mat.mulv (Linalg.Mat.transpose a) x in
  Alcotest.(check bool)
    "mulv_t = (A^T)x" true
    (Linalg.Vec.approx_equal (Linalg.Mat.mulv_t a x) expected)

let test_mat_row_col () =
  let a = mat_of [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "row" true (Linalg.Vec.approx_equal (Linalg.Mat.row a 1) [| 3.0; 4.0 |]);
  Alcotest.(check bool) "col" true (Linalg.Vec.approx_equal (Linalg.Mat.col a 1) [| 2.0; 4.0 |])

(* ---------------- Lu ---------------- *)

let test_lu_solve_known () =
  let a = mat_of [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.Lu.solve_system a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_lu_det () =
  let a = mat_of [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  check_float "det diag" 6.0 (Linalg.Lu.det (Linalg.Lu.factor a));
  let p = mat_of [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_float "det permutation" (-1.0) (Linalg.Lu.det (Linalg.Lu.factor p))

let test_lu_singular () =
  let a = mat_of [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "raises Singular" true
    (match Linalg.Lu.factor a with
    | exception Linalg.Lu.Singular _ -> true
    | _ -> false)

let test_lu_inverse () =
  let st = rand_state 5 in
  let a = random_dd_matrix st 6 in
  let inv = Linalg.Lu.inverse a in
  Alcotest.(check bool)
    "A * A^-1 = I" true
    (Linalg.Mat.approx_equal ~tol:1e-10 (Linalg.Mat.mul a inv) (Linalg.Mat.identity 6))

let prop_lu_residual =
  QCheck.Test.make ~count:50 ~name:"lu solves random dd systems"
    QCheck.(pair (int_range 1 12) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state seed in
      let a = random_dd_matrix st n in
      let b = Array.init n (fun k -> Random.State.float st 2.0 -. 1.0 +. float_of_int k) in
      let x = Linalg.Lu.solve_system a b in
      Linalg.Vec.dist_inf (Linalg.Mat.mulv a x) b < 1e-8)

(* ---------------- Qr ---------------- *)

let test_qr_r_upper_triangular () =
  let st = rand_state 6 in
  let a = Linalg.Mat.random st 6 4 in
  let r = Linalg.Qr.r (Linalg.Qr.factor a) in
  let ok = ref true in
  for i = 1 to 3 do
    for j = 0 to i - 1 do
      if Float.abs (Linalg.Mat.get r i j) > 1e-14 then ok := false
    done
  done;
  Alcotest.(check bool) "R upper triangular" true !ok

let test_qr_least_squares_exact () =
  (* overdetermined but consistent system *)
  let a = mat_of [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let x_true = [| 2.0; -1.0 |] in
  let b = Linalg.Mat.mulv a x_true in
  let x = Linalg.Qr.least_squares a b in
  Alcotest.(check bool) "exact recovery" true (Linalg.Vec.approx_equal ~tol:1e-12 x x_true)

let test_qr_vs_normal_equations () =
  let st = rand_state 7 in
  let a = Linalg.Mat.random st 10 4 in
  let b = Array.init 10 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let x = Linalg.Qr.least_squares a b in
  (* normal equations: A^T A x = A^T b *)
  let ata = Linalg.Mat.mul (Linalg.Mat.transpose a) a in
  let atb = Linalg.Mat.mulv_t a b in
  let x_ne = Linalg.Lu.solve_system ata atb in
  Alcotest.(check bool) "matches normal equations" true
    (Linalg.Vec.approx_equal ~tol:1e-8 x x_ne)

let test_qr_rank_deficient () =
  let a = mat_of [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.(check bool) "raises Rank_deficient" true
    (match Linalg.Qr.least_squares a [| 1.0; 2.0; 3.0 |] with
    | exception Linalg.Qr.Rank_deficient _ -> true
    | _ -> false)

let prop_qr_residual_orthogonal =
  QCheck.Test.make ~count:50 ~name:"qr residual orthogonal to range"
    QCheck.(pair (int_range 2 6) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 77) in
      let m = n + 4 in
      let a = Linalg.Mat.random st m n in
      let b = Array.init m (fun _ -> Random.State.float st 2.0 -. 1.0) in
      match Linalg.Qr.least_squares a b with
      | exception Linalg.Qr.Rank_deficient _ -> QCheck.assume_fail ()
      | x ->
          let r = Linalg.Vec.sub (Linalg.Mat.mulv a x) b in
          Linalg.Vec.norm_inf (Linalg.Mat.mulv_t a r) < 1e-8)

(* ---------------- Eig ---------------- *)

let sorted_reals eigs =
  let rs = Array.map (fun z -> z.Complex.re) eigs in
  Array.sort Float.compare rs;
  rs

let test_eig_diagonal () =
  let a = mat_of [| [| 3.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  let e = sorted_reals (Linalg.Eig.eigenvalues a) in
  check_float "e0" (-1.0) e.(0);
  check_float "e1" 3.0 e.(1)

let test_eig_rotation () =
  (* [[0,1],[-1,0]] has eigenvalues ±i *)
  let a = mat_of [| [| 0.0; 1.0 |]; [| -1.0; 0.0 |] |] in
  let e = Linalg.Eig.eigenvalues a in
  let ims = Array.map (fun z -> z.Complex.im) e in
  Array.sort Float.compare ims;
  check_float "im0" (-1.0) ims.(0);
  check_float "im1" 1.0 ims.(1);
  Array.iter (fun z -> check_float "re" 0.0 z.Complex.re) e

let test_poly_roots_cubic () =
  (* (x-1)(x-2)(x-3) *)
  let roots = sorted_reals (Linalg.Eig.poly_roots [| -6.0; 11.0; -6.0; 1.0 |]) in
  check_float "r0" 1.0 roots.(0);
  check_float "r1" 2.0 roots.(1);
  check_float "r2" 3.0 roots.(2)

let test_poly_roots_complex () =
  let roots = Linalg.Eig.poly_roots [| 1.0; 0.0; 1.0 |] in
  Array.iter (fun z -> check_float "unit modulus" 1.0 (Complex.norm z)) roots

let test_hessenberg_preserves_eigs () =
  let st = rand_state 8 in
  let a = Linalg.Mat.random st 6 6 in
  let h = Linalg.Mat.copy a in
  Linalg.Eig.hessenberg h;
  (* structurally Hessenberg *)
  let ok = ref true in
  for i = 2 to 5 do
    for j = 0 to i - 2 do
      if Float.abs (Linalg.Mat.get h i j) > 1e-12 then ok := false
    done
  done;
  Alcotest.(check bool) "hessenberg structure" true !ok;
  let tr m =
    let acc = ref 0.0 in
    for i = 0 to 5 do
      acc := !acc +. Linalg.Mat.get m i i
    done;
    !acc
  in
  check_float "similarity preserves trace" (tr a) (tr h)

let prop_eig_trace =
  QCheck.Test.make ~count:40 ~name:"sum of eigenvalues = trace"
    QCheck.(pair (int_range 2 10) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 13) in
      let a = Linalg.Mat.random st n n in
      let e = Linalg.Eig.eigenvalues (Linalg.Mat.copy a) in
      let tr = ref 0.0 in
      for i = 0 to n - 1 do
        tr := !tr +. Linalg.Mat.get a i i
      done;
      let s = Array.fold_left (fun acc z -> acc +. z.Complex.re) 0.0 e in
      let im = Array.fold_left (fun acc z -> acc +. z.Complex.im) 0.0 e in
      Float.abs (s -. !tr) < 1e-6 *. Float.max 1.0 (Float.abs !tr)
      && Float.abs im < 1e-8)

let prop_eig_det =
  QCheck.Test.make ~count:40 ~name:"product of eigenvalues = det"
    QCheck.(pair (int_range 2 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 29) in
      let a = Linalg.Mat.random st n n in
      let e = Linalg.Eig.eigenvalues (Linalg.Mat.copy a) in
      let det = Linalg.Lu.det (Linalg.Lu.factor a) in
      let prod = Array.fold_left Complex.mul Complex.one e in
      Float.abs (prod.Complex.re -. det) < 1e-6 *. Float.max 1.0 (Float.abs det)
      && Float.abs prod.Complex.im < 1e-6 *. Float.max 1.0 (Float.abs det))

let prop_poly_roots_reconstruct =
  QCheck.Test.make ~count:30 ~name:"poly_roots finds zeros"
    QCheck.(list_of_size (Gen.int_range 1 5) (float_range (-3.0) 3.0))
    (fun roots ->
      QCheck.assume (roots <> []);
      (* build polynomial from roots, find them again *)
      let coeffs = ref [| 1.0 |] in
      List.iter
        (fun r ->
          let c = !coeffs in
          let n = Array.length c in
          let next = Array.make (n + 1) 0.0 in
          for k = 0 to n - 1 do
            next.(k + 1) <- next.(k + 1) +. c.(k);
            next.(k) <- next.(k) -. (r *. c.(k))
          done;
          coeffs := next)
        roots;
      let found = Linalg.Eig.poly_roots !coeffs in
      (* every true root is close to some found root *)
      List.for_all
        (fun r ->
          Array.exists
            (fun z -> Complex.norm (Complex.sub z { Complex.re = r; im = 0.0 }) < 1e-4)
            found)
        roots)

(* ---------------- Cmat / Clu ---------------- *)

let test_clu_solve () =
  let g = mat_of [| [| 1.0; 0.5 |]; [| 0.25; 2.0 |] |] in
  let c = mat_of [| [| 1e-3; 0.0 |]; [| 0.0; 2e-3 |] |] in
  let s = { Complex.re = 0.0; im = 10.0 } in
  let a = Linalg.Cmat.lincomb Complex.one g s c in
  let b = [| Complex.one; Complex.i |] in
  let x = Linalg.Clu.solve_system a b in
  let back = Linalg.Cmat.mulv a x in
  Array.iteri
    (fun k z ->
      Alcotest.(check bool)
        "residual small" true
        (Complex.norm (Complex.sub z b.(k)) < 1e-12))
    back

let test_cmat_mul_identity () =
  let a =
    Linalg.Cmat.init 3 3 (fun i j ->
        { Complex.re = float_of_int ((i * 3) + j); im = float_of_int (i - j) })
  in
  let i3 = Linalg.Cmat.identity 3 in
  let prod = Linalg.Cmat.mul a i3 in
  let ok = ref true in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if
        Complex.norm (Complex.sub (Linalg.Cmat.get prod i j) (Linalg.Cmat.get a i j))
        > 1e-14
      then ok := false
    done
  done;
  Alcotest.(check bool) "A*I = A (complex)" true !ok

let prop_clu_residual =
  QCheck.Test.make ~count:30 ~name:"complex lu solves random pencils"
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 41) in
      let g = random_dd_matrix st n in
      let c = Linalg.Mat.random st n n in
      let s = { Complex.re = 0.0; im = Random.State.float st 100.0 } in
      let a = Linalg.Cmat.lincomb Complex.one g s c in
      let b =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2.0 -. 1.0;
              im = Random.State.float st 2.0 -. 1.0;
            })
      in
      match Linalg.Clu.solve_system a b with
      | exception Linalg.Clu.Singular _ -> QCheck.assume_fail ()
      | x ->
          let back = Linalg.Cmat.mulv a x in
          Array.for_all2
            (fun z bz -> Complex.norm (Complex.sub z bz) < 1e-7)
            back b)

(* ---------------- workspace kernels ---------------- *)

let random_cpencil st n =
  let g = random_dd_matrix st n in
  let c = Linalg.Mat.random st n n in
  let s = { Complex.re = 0.0; im = Random.State.float st 100.0 } in
  Linalg.Cmat.lincomb Complex.one g s c

(* the [_into] kernels promise bit-identical results to the allocating
   wrappers, so these compare with exact float equality *)
let prop_lu_factor_into_agrees =
  QCheck.Test.make ~count:50 ~name:"lu factor_into/solve_into = factor/solve"
    QCheck.(pair (int_range 1 10) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 57) in
      let a = random_dd_matrix st n in
      let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let x_ref = Linalg.Lu.solve_system a b in
      let ws = Linalg.Lu.workspace n in
      (* reuse the workspace twice: a stale factorization must not leak *)
      Linalg.Lu.factor_into ws (random_dd_matrix st n);
      Linalg.Lu.factor_into ws a;
      let x = Array.make n 0.0 in
      Linalg.Lu.solve_into ws b x;
      x = x_ref)

let prop_clu_factor_into_agrees =
  QCheck.Test.make ~count:50 ~name:"clu factor_into/solve_into = factor/solve"
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 91) in
      let a = random_cpencil st n in
      let b =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2.0 -. 1.0;
              im = Random.State.float st 2.0 -. 1.0;
            })
      in
      let x_ref = Linalg.Clu.solve_system a b in
      let ws = Linalg.Clu.workspace n in
      Linalg.Clu.factor_into ws (random_cpencil st n);
      Linalg.Clu.factor_into ws a;
      let x = Array.make n Complex.zero in
      Linalg.Clu.solve_into ws b x;
      x = x_ref)

let prop_lincomb_into_agrees =
  QCheck.Test.make ~count:50 ~name:"cmat lincomb_into = lincomb"
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (n, seed) ->
      let st = rand_state (seed + 23) in
      let g = Linalg.Mat.random st n n and c = Linalg.Mat.random st n n in
      let s = { Complex.re = Random.State.float st 2.0; im = Random.State.float st 100.0 } in
      let expected = Linalg.Cmat.lincomb Complex.one g s c in
      let dst = Linalg.Cmat.create n n in
      Linalg.Cmat.lincomb_into dst Complex.one g s c;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Linalg.Cmat.get dst i j <> Linalg.Cmat.get expected i j then ok := false
        done
      done;
      !ok)

let test_solve_into_rejects_aliasing () =
  let a = mat_of [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let f = Linalg.Lu.factor a in
  let b = [| 5.0; 10.0 |] in
  Alcotest.check_raises "aliasing rejected"
    (Invalid_argument "Lu.solve_into: b and x must not alias") (fun () ->
      Linalg.Lu.solve_into f b b)

let test_workspace_size_mismatch () =
  let ws = Linalg.Lu.workspace 3 in
  Alcotest.(check bool) "size mismatch rejected" true
    (match Linalg.Lu.factor_into ws (Linalg.Mat.identity 2) with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ---------------- Qr workspace API: bitwise parity ---------------- *)

(* the in-place kernels promise the very same arithmetic sequence as the
   copying entry points, so these comparisons are on raw float bits *)
let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits_arr name xs ys =
  Alcotest.(check int) (name ^ " length") (Array.length xs) (Array.length ys);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "%s.(%d) %h = %h" name i x ys.(i))
        true (bits_eq x ys.(i)))
    xs

let check_bits_mat name a b =
  Alcotest.(check int) (name ^ " rows") (Linalg.Mat.rows a) (Linalg.Mat.rows b);
  Alcotest.(check int) (name ^ " cols") (Linalg.Mat.cols a) (Linalg.Mat.cols b);
  for i = 0 to Linalg.Mat.rows a - 1 do
    check_bits_arr
      (Printf.sprintf "%s row %d" name i)
      (Linalg.Mat.row a i) (Linalg.Mat.row b i)
  done

(* copy [a] into the workspace's cached matrix, as the fast relocation
   kernel does before factoring in place *)
let ws_copy ws a =
  let m = Linalg.Mat.rows a and n = Linalg.Mat.cols a in
  let w = Linalg.Qr.ws_matrix ws ~rows:m ~cols:n in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Linalg.Mat.set w i j (Linalg.Mat.get a i j)
    done
  done;
  w

let test_qr_factor_into_bitwise () =
  let st = rand_state 31 in
  let ws = Linalg.Qr.workspace () in
  (* reusing one workspace across shapes is the intended pattern *)
  List.iter
    (fun (m, n) ->
      let a = Linalg.Mat.random st m n in
      let b = Array.init m (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let qr = Linalg.Qr.factor a in
      let t = Linalg.Qr.factor_into ws (ws_copy ws a) in
      check_bits_mat (Printf.sprintf "R %dx%d" m n) (Linalg.Qr.r qr)
        (Linalg.Qr.r t);
      let qtb = Linalg.Qr.apply_qt qr b in
      let b' = Array.copy b in
      Linalg.Qr.apply_qt_into t b';
      check_bits_arr (Printf.sprintf "Qt b %dx%d" m n) qtb b')
    [ (6, 3); (9, 5); (4, 4) ]

let test_qr_apply_qt_mat_bitwise () =
  let st = rand_state 32 in
  let a = Linalg.Mat.random st 8 4 in
  let bmat = Linalg.Mat.random st 8 3 in
  let qr = Linalg.Qr.factor a in
  let ws = Linalg.Qr.workspace () in
  let t = Linalg.Qr.factor_into ws (ws_copy ws a) in
  let expect = Array.init 3 (fun j -> Linalg.Qr.apply_qt qr (Linalg.Mat.col bmat j)) in
  Linalg.Qr.apply_qt_mat t bmat;
  for j = 0 to 2 do
    check_bits_arr (Printf.sprintf "QtB col %d" j) expect.(j) (Linalg.Mat.col bmat j)
  done

let test_qr_block_extraction_bitwise () =
  let st = rand_state 33 in
  let m = 10 and n1 = 3 and n2 = 4 in
  let a = Linalg.Mat.random st m (n1 + n2) in
  let b = Array.init m (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let qr = Linalg.Qr.factor a in
  let r = Linalg.Qr.r qr in
  let qtb = Linalg.Qr.apply_qt qr b in
  let ws = Linalg.Qr.workspace () in
  let t = Linalg.Qr.factor_into ws (ws_copy ws a) in
  let dst = Linalg.Mat.init (2 * n2) n2 (fun _ _ -> 7.0) in
  Linalg.Qr.r22_block t ~split:n1 dst n2;
  for k = 0 to n2 - 1 do
    for c = 0 to n2 - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "R22 (%d,%d)" k c)
        true
        (bits_eq (Linalg.Mat.get dst (n2 + k) c) (Linalg.Mat.get r (n1 + k) (n1 + c)))
    done
  done;
  (* rows above the destination offset untouched *)
  Alcotest.(check bool) "dst offset respected" true
    (Linalg.Mat.get dst 0 0 = 7.0);
  let big = Array.make (2 * n2) 7.0 in
  Linalg.Qr.apply_qt_block t ~split:n1 b big n2;
  check_bits_arr "Q2t b" (Array.sub qtb n1 n2) (Array.sub big n2 n2);
  Alcotest.(check bool) "rhs offset respected" true (big.(0) = 7.0)

let test_qr_least_squares_into_bitwise () =
  let st = rand_state 34 in
  let a = Linalg.Mat.random st 12 5 in
  let b = Array.init 12 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let x = Linalg.Qr.least_squares a b in
  let ws = Linalg.Qr.workspace () in
  let x' = Linalg.Qr.least_squares_into ws (ws_copy ws a) (Array.copy b) in
  check_bits_arr "solution" x x'

(* the shared-Q1 two-stage factorization of the uniform-weighting fast
   path: factor the common left block once, push its reflectors onto the
   right block, then QR only the tail rows. Reflector k of a Householder
   factorization depends only on columns <= k, so the staged R22 must be
   bit-identical to the one-shot factorization's trailing block. *)
let test_qr_two_stage_shared_q1_bitwise () =
  let st = rand_state 35 in
  let m = 11 and n1 = 4 and n2 = 3 in
  let a1 = Linalg.Mat.random st m n1 in
  let a2 = Linalg.Mat.random st m n2 in
  let full =
    Linalg.Mat.init m (n1 + n2) (fun i j ->
        if j < n1 then Linalg.Mat.get a1 i j else Linalg.Mat.get a2 i (j - n1))
  in
  let qr_full = Linalg.Qr.factor full in
  let r_full = Linalg.Qr.r qr_full in
  let ws1 = Linalg.Qr.workspace () and ws2 = Linalg.Qr.workspace () in
  let t1 = Linalg.Qr.factor_into ws1 (ws_copy ws1 a1) in
  let a2' = Linalg.Mat.init m n2 (fun i j -> Linalg.Mat.get a2 i j) in
  Linalg.Qr.apply_qt_mat t1 a2';
  let tail = Linalg.Mat.init (m - n1) n2 (fun i j -> Linalg.Mat.get a2' (n1 + i) j) in
  let t2 = Linalg.Qr.factor_into ws2 (ws_copy ws2 tail) in
  let dst = Linalg.Mat.create n2 n2 in
  Linalg.Qr.r22_block t2 ~split:0 dst 0;
  for k = 0 to n2 - 1 do
    for c = 0 to n2 - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "staged R22 (%d,%d)" k c)
        true
        (bits_eq (Linalg.Mat.get dst k c) (Linalg.Mat.get r_full (n1 + k) (n1 + c)))
    done
  done

(* ---------------- Cx ---------------- *)

let test_cx_ops () =
  let z = Linalg.Cx.make 3.0 4.0 in
  check_float "norm" 5.0 (Linalg.Cx.norm z);
  check_float "norm2" 25.0 (Linalg.Cx.norm2 z);
  let w = Linalg.Cx.(z *: conj z) in
  check_float "z * conj z" 25.0 w.Complex.re;
  check_float "imag zero" 0.0 w.Complex.im;
  Alcotest.(check bool) "inv" true
    (Linalg.Cx.approx_equal Linalg.Cx.(inv (inv z)) z)

(* ---------------- split Clu vs the boxed reference ---------------- *)

module Ref = Oracle.Clu_ref

let cx re im = { Complex.re; im }

let cbits_eq (a : Complex.t) (b : Complex.t) =
  bits_eq a.Complex.re b.Complex.re && bits_eq a.Complex.im b.Complex.im

let cvec_bits_eq a b =
  Array.length a = Array.length b && Array.for_all2 cbits_eq a b

(* outcome of a factorization: the Singular payload with its magnitude
   as raw bits, or success *)
let factor_outcome f =
  match f () with
  | () -> None
  | exception Linalg.Clu.Singular { pivot_index; magnitude } ->
      Some (pivot_index, Int64.bits_of_float magnitude)

(* split factors and solutions equal the boxed reference bit for bit:
   perm, every LU entry, a complex and a real right-hand side *)
let same_as_reference ?guard st a =
  let n = Linalg.Cmat.rows a in
  let ws = Linalg.Clu.workspace n and rf = Ref.workspace n in
  let got = factor_outcome (fun () -> Linalg.Clu.factor_into ?guard ws a) in
  let want = factor_outcome (fun () -> Ref.factor_into ?guard rf a) in
  got = want
  && (got <> None
     ||
     let lu = Linalg.Clu.lu ws in
     let lu_ok = ref true in
     for i = 0 to n - 1 do
       for j = 0 to n - 1 do
         if not (cbits_eq (Linalg.Cmat.get lu i j) (Ref.lu rf).((i * n) + j))
         then lu_ok := false
       done
     done;
     let b =
       Array.init n (fun _ ->
           cx (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0))
     in
     let breal = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
     let x = Array.make n Complex.zero in
     Linalg.Clu.solve_into ws b x;
     let re = Array.make n 0.0 and im = Array.make n 0.0 in
     Linalg.Clu.solve_real_into ws breal ~re ~im;
     let xr = Array.init n (fun i -> cx re.(i) im.(i)) in
     Linalg.Clu.perm ws = Ref.perm rf
     && !lu_ok
     && cvec_bits_eq x (Ref.solve rf b)
     && cvec_bits_eq xr (Ref.solve rf (Array.map (fun v -> cx v 0.0) breal)))

(* matrix families that exercise every branch of the elimination:
   general entries, pencils, equal-magnitude ties (|z| = 1 or 2 from
   axis-aligned values, so pivot search must keep the first), a zero
   column, and a non-finite entry landing on a pivot *)
let random_family st n family =
  let unit_like () =
    match Random.State.int st 6 with
    | 0 -> cx 1.0 0.0
    | 1 -> cx (-1.0) 0.0
    | 2 -> cx 0.0 1.0
    | 3 -> cx 0.0 (-1.0)
    | 4 -> cx 2.0 0.0
    | _ -> cx 0.0 0.0
  in
  let general () =
    cx (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0)
  in
  match family with
  | 0 -> Linalg.Cmat.init n n (fun _ _ -> general ())
  | 1 -> random_cpencil st n
  | 2 -> Linalg.Cmat.init n n (fun _ _ -> unit_like ())
  | 3 ->
      let zc = Random.State.int st n in
      Linalg.Cmat.init n n (fun _ j -> if j = zc then Complex.zero else general ())
  | _ ->
      let bad = [| Float.nan; Float.infinity; Float.neg_infinity |] in
      let v = bad.(Random.State.int st 3) in
      let bi = Random.State.int st n and bj = Random.State.int st n in
      Linalg.Cmat.init n n (fun i j ->
          if i = bi && j = bj then
            if Random.State.bool st then cx v 0.0 else cx 0.0 v
          else general ())

let prop_clu_matches_reference =
  QCheck.Test.make ~count:200 ~name:"split clu = boxed reference, bit for bit"
    QCheck.(triple (int_range 1 10) (int_bound 4) (int_bound 100000))
    (fun (n, family, seed) ->
      let st = rand_state (seed + 131) in
      same_as_reference st (random_family st n family))

let test_clu_reference_pivot_cases () =
  let st = rand_state 7 in
  let outcome f = factor_outcome (fun () -> ignore (f ())) in
  let check_same name a =
    let got = outcome (fun () -> Linalg.Clu.factor a) in
    let want = outcome (fun () -> Ref.factor a) in
    Alcotest.(check bool) (name ^ " raises") true (got <> None);
    Alcotest.(check (option (pair int int64))) name want got
  in
  check_same "zero column"
    (Linalg.Cmat.init 4 4 (fun i j -> if j = 2 then Complex.zero else cx (float_of_int (i + 1)) (float_of_int (j - i))));
  check_same "nan pivot"
    (Linalg.Cmat.init 3 3 (fun i j -> if i = 0 && j = 0 then cx Float.nan 1.0 else cx 0.5 0.0));
  check_same "inf pivot"
    (Linalg.Cmat.init 3 3 (fun i j -> if i = j then cx 1.0 Float.infinity else cx 0.25 0.0));
  check_same "denormal pivot"
    (Linalg.Cmat.init 2 2 (fun i j -> if i = j then cx 1e-310 0.0 else Complex.zero));
  (* equal-magnitude ties: the whole first column has modulus 1, so the
     first pivot search must keep row 0 *)
  let tied =
    Linalg.Cmat.init 5 5 (fun i j ->
        if j > 0 then
          cx (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0)
        else
          match i mod 4 with
          | 0 -> cx 1.0 0.0
          | 1 -> cx 0.0 1.0
          | 2 -> cx (-1.0) 0.0
          | _ -> cx 0.0 (-1.0))
  in
  let f = Linalg.Clu.factor tied in
  Alcotest.(check int) "first of the tied rows kept" 0 (Linalg.Clu.perm f).(0);
  Alcotest.(check bool) "pivot ties" true (same_as_reference st tied)

let test_clu_reference_fault_probe () =
  let a = random_cpencil (rand_state 3) 5 in
  let armed f =
    Fault.arm_exact ~site:"clu.pivot_zero" ~fire_at:1 ~burst:1 ();
    Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) (fun () ->
        factor_outcome (fun () -> ignore (f ())))
  in
  let got = armed (fun () -> Linalg.Clu.factor a) in
  let want = armed (fun () -> Ref.factor a) in
  Alcotest.(check (option (pair int int64)))
    "probe fires at pivot 0 with magnitude 0" (Some (0, 0L)) got;
  Alcotest.(check (option (pair int int64))) "same as reference" want got

let test_clu_reference_guard_floor () =
  let st = rand_state 11 in
  let guard = { Guard.default with Guard.rcond_min = 1e-6 } in
  let ill =
    Linalg.Cmat.init 4 4 (fun i j ->
        if i <> j then cx 1e-12 0.0
        else if i = 2 then cx 0.0 1e-9
        else cx (float_of_int (i + 1)) 0.5)
  in
  let got = factor_outcome (fun () -> ignore (Linalg.Clu.factor ~guard ill)) in
  Alcotest.(check bool) "guard floor trips" true (got <> None);
  Alcotest.(check bool) "same Singular as reference" true
    (same_as_reference ~guard st ill);
  Alcotest.(check bool) "passes without guard" true (same_as_reference st ill)

(* minor words allocated by [f], net of the measurement itself; read
   with Gc.minor_words, which counts the live minor heap (quick_stat's
   minor_words does not in OCaml 5.1) *)
let minor_words_of f =
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  measure f -. measure (fun () -> ())

let test_clu_split_allocation_free () =
  let st = rand_state 5 in
  let n = 36 in
  let a = random_cpencil st n in
  let ws = Linalg.Clu.workspace n in
  let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  let solve () =
    Linalg.Clu.factor_into ws a;
    Linalg.Clu.solve_real_into ws b ~re ~im
  in
  solve ();
  Alcotest.(check (float 0.0)) "factor_into + solve_real_into words" 0.0
    (minor_words_of solve)

let test_transfer_ws_allocates_only_output () =
  let st = rand_state 9 in
  let n = 12 and mi = 2 and mo = 3 in
  let g = random_dd_matrix st n and c = Linalg.Mat.random st n n in
  let b = Linalg.Mat.random st n mi and d = Linalg.Mat.random st n mo in
  let ws = Engine.Ac.make_ws ~b ~d in
  let s = cx 0.0 7.5 in
  let h = Engine.Ac.transfer_ws ws ~g ~c ~s in
  let expected = Oracle.Clu_ref.transfer ~g ~c ~b ~d ~s in
  let same = ref true in
  for o = 0 to mo - 1 do
    for j = 0 to mi - 1 do
      if not (cbits_eq (Linalg.Cmat.get h o j) (Linalg.Cmat.get expected o j))
      then same := false
    done
  done;
  Alcotest.(check bool) "bitwise equal to the boxed reference" true !same;
  Alcotest.(check (float 0.0)) "only the mo x mi output is allocated"
    (minor_words_of (fun () -> ignore (Linalg.Cmat.create mo mi)))
    (minor_words_of (fun () -> ignore (Engine.Ac.transfer_ws ws ~g ~c ~s)))

(* ---------------- in-place Eig vs the copying reference ---------------- *)

(* matrix families for the parity properties: dense uniform entries;
   sparse {-1, 0, 1} entries (about one in eight needs an exceptional
   shift and a few exhaust the iteration budget); cyclic permutations,
   the textbook stagnation case where every size >= 3 needs the
   exceptional shift; and a uniform matrix with one NaN entry, which
   never deflates and so must raise No_convergence *)
let eig_case (kind, n, seed) =
  let st = rand_state seed in
  match kind with
  | 0 -> Linalg.Mat.random st n n
  | 1 ->
      Linalg.Mat.init n n (fun _ _ ->
          if Random.State.int st 3 = 0 then
            float_of_int (Random.State.int st 3 - 1)
          else 0.0)
  | 2 -> Linalg.Mat.init n n (fun i j -> if i = (j + 1) mod n then 1.0 else 0.0)
  | 3 ->
      let m = Linalg.Mat.random st n n in
      Linalg.Mat.set m (Random.State.int st n) (Random.State.int st n) Float.nan;
      m
  | _ ->
      (* one ±inf off-diagonal entry, as a VF relocation matrix
         A − b·c̃ᵀ/d̃ gets from an underflowed d̃: balancing must
         terminate *)
      let m = Linalg.Mat.random st n n in
      let i = Random.State.int st n in
      let j = (i + 1 + Random.State.int st (n - 1)) mod n in
      Linalg.Mat.set m i j
        (if Random.State.bool st then Float.infinity else Float.neg_infinity);
      m

let arb_eig_case =
  QCheck.make
    ~print:(fun (k, n, s) -> Printf.sprintf "kind %d, n %d, seed %d" k n s)
    QCheck.Gen.(triple (int_range 0 4) (int_range 2 10) (int_bound 100_000))

let eig_outcome f m =
  match f m with
  | e -> Some e
  | exception Linalg.Eig.No_convergence -> None

let eig_outcomes_equal a b =
  match (a, b) with
  | Some x, Some y -> Array.length x = Array.length y && Array.for_all2 cbits_eq x y
  | None, None -> true
  | _ -> false

let mat_bits_equal a b =
  let n = Linalg.Mat.rows a and m = Linalg.Mat.cols a in
  let ok = ref (Linalg.Mat.rows b = n && Linalg.Mat.cols b = m) in
  if !ok then
    for i = 0 to n - 1 do
      for j = 0 to m - 1 do
        if not (bits_eq (Linalg.Mat.get a i j) (Linalg.Mat.get b i j)) then
          ok := false
      done
    done;
  !ok

let prop_eig_matches_reference =
  QCheck.Test.make ~count:300 ~name:"in-place eig bit-equal to Eig_ref"
    arb_eig_case (fun case ->
      let a = eig_case case in
      (* each stage on its own, then the whole pipeline; No_convergence
         must fire in exactly the same cases *)
      let bal = Linalg.Mat.copy a in
      Linalg.Eig.balance bal;
      let hess = Linalg.Mat.copy bal in
      Linalg.Eig.hessenberg hess;
      let want_bal = Oracle.Eig_ref.balance a in
      mat_bits_equal bal want_bal
      && mat_bits_equal hess (Oracle.Eig_ref.hessenberg want_bal)
      && eig_outcomes_equal
           (eig_outcome Linalg.Eig.eigenvalues (Linalg.Mat.copy a))
           (eig_outcome Oracle.Eig_ref.eigenvalues a))

(* the budget-exhaustion path is rare on random input: sweep a fixed
   seed range of the sparse family, require it to be reached and the two
   pipelines to agree on every case *)
let test_eig_no_convergence_parity () =
  let raised = ref 0 and mismatches = ref 0 in
  for seed = 0 to 2999 do
    let a = eig_case (1, 3 + (seed mod 8), seed) in
    let want = eig_outcome Oracle.Eig_ref.eigenvalues a in
    if want = None then incr raised;
    if not (eig_outcomes_equal want (eig_outcome Linalg.Eig.eigenvalues a)) then
      incr mismatches
  done;
  Alcotest.(check int) "outcome mismatches" 0 !mismatches;
  Alcotest.(check bool)
    (Printf.sprintf "No_convergence reached (%d of 3000)" !raised)
    true (!raised > 0)

let test_eig_allocates_only_output () =
  let n = 9 in
  let src = Linalg.Mat.random (rand_state 77) n n in
  let scratch = Linalg.Mat.create n n in
  let run () =
    Linalg.Mat.blit ~src ~dst:scratch;
    ignore (Sys.opaque_identity (Linalg.Eig.eigenvalues scratch))
  in
  run ();
  (* the output: an n-array of fresh complex records *)
  let output () =
    let out = Array.make n Complex.zero in
    for k = 0 to n - 1 do
      out.(k) <- { Complex.re = float_of_int k; im = float_of_int (-k) }
    done;
    ignore (Sys.opaque_identity out)
  in
  Alcotest.(check (float 0.0)) "warm eigenvalues allocates only its output"
    (minor_words_of output) (minor_words_of run)

let qsuite = [ prop_lu_residual; prop_qr_residual_orthogonal; prop_eig_trace;
               prop_eig_det; prop_poly_roots_reconstruct; prop_clu_residual;
               prop_lu_factor_into_agrees; prop_clu_factor_into_agrees;
               prop_lincomb_into_agrees; prop_clu_matches_reference;
               prop_eig_matches_reference ]

let suite =
  [
    Alcotest.test_case "vec dot" `Quick test_vec_dot;
    Alcotest.test_case "vec norms" `Quick test_vec_norms;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec mismatch" `Quick test_vec_mismatch;
    Alcotest.test_case "mat mul identity" `Quick test_mat_mul_identity;
    Alcotest.test_case "mat mul assoc" `Quick test_mat_mul_assoc;
    Alcotest.test_case "mat transpose involution" `Quick test_mat_transpose_involution;
    Alcotest.test_case "mat mulv_t" `Quick test_mat_mulv_t;
    Alcotest.test_case "mat row/col" `Quick test_mat_row_col;
    Alcotest.test_case "lu solve known" `Quick test_lu_solve_known;
    Alcotest.test_case "lu det" `Quick test_lu_det;
    Alcotest.test_case "lu singular" `Quick test_lu_singular;
    Alcotest.test_case "lu inverse" `Quick test_lu_inverse;
    Alcotest.test_case "qr upper triangular" `Quick test_qr_r_upper_triangular;
    Alcotest.test_case "qr exact recovery" `Quick test_qr_least_squares_exact;
    Alcotest.test_case "qr vs normal equations" `Quick test_qr_vs_normal_equations;
    Alcotest.test_case "qr rank deficient" `Quick test_qr_rank_deficient;
    Alcotest.test_case "eig diagonal" `Quick test_eig_diagonal;
    Alcotest.test_case "eig rotation" `Quick test_eig_rotation;
    Alcotest.test_case "poly roots cubic" `Quick test_poly_roots_cubic;
    Alcotest.test_case "poly roots complex" `Quick test_poly_roots_complex;
    Alcotest.test_case "hessenberg structure" `Quick test_hessenberg_preserves_eigs;
    Alcotest.test_case "eig no-convergence parity" `Quick
      test_eig_no_convergence_parity;
    Alcotest.test_case "eig allocates only output" `Quick
      test_eig_allocates_only_output;
    Alcotest.test_case "clu pencil solve" `Quick test_clu_solve;
    Alcotest.test_case "cmat identity" `Quick test_cmat_mul_identity;
    Alcotest.test_case "cx ops" `Quick test_cx_ops;
    Alcotest.test_case "clu reference pivot cases" `Quick
      test_clu_reference_pivot_cases;
    Alcotest.test_case "clu reference fault probe" `Quick
      test_clu_reference_fault_probe;
    Alcotest.test_case "clu reference guard floor" `Quick
      test_clu_reference_guard_floor;
    Alcotest.test_case "clu split solve allocation-free" `Quick
      test_clu_split_allocation_free;
    Alcotest.test_case "transfer_ws allocates only output" `Quick
      test_transfer_ws_allocates_only_output;
    Alcotest.test_case "solve_into rejects aliasing" `Quick
      test_solve_into_rejects_aliasing;
    Alcotest.test_case "workspace size mismatch" `Quick test_workspace_size_mismatch;
    Alcotest.test_case "qr factor_into bitwise" `Quick test_qr_factor_into_bitwise;
    Alcotest.test_case "qr apply_qt_mat bitwise" `Quick test_qr_apply_qt_mat_bitwise;
    Alcotest.test_case "qr block extraction bitwise" `Quick
      test_qr_block_extraction_bitwise;
    Alcotest.test_case "qr least_squares_into bitwise" `Quick
      test_qr_least_squares_into_bitwise;
    Alcotest.test_case "qr two-stage shared Q1 bitwise" `Quick
      test_qr_two_stage_shared_q1_bitwise;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite

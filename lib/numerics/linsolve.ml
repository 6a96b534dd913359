exception Singular

let gauss_in_place a b =
  let n = Array.length b in
  if Matrix.rows a <> n || Matrix.cols a <> n then invalid_arg "Linsolve.gauss: shape";
  for k = 0 to n - 1 do
    (* partial pivoting *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Matrix.get a i k) > Float.abs (Matrix.get a !piv k) then piv := i
    done;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = Matrix.get a k j in
        Matrix.set a k j (Matrix.get a !piv j);
        Matrix.set a !piv j t
      done;
      let t = b.(k) in
      b.(k) <- b.(!piv);
      b.(!piv) <- t
    end;
    let akk = Matrix.get a k k in
    if Float.abs akk < 1e-300 then raise Singular;
    for i = k + 1 to n - 1 do
      let f = Matrix.get a i k /. akk in
      if f <> 0.0 then begin
        Matrix.set a i k 0.0;
        for j = k + 1 to n - 1 do
          Matrix.set a i j (Matrix.get a i j -. (f *. Matrix.get a k j))
        done;
        b.(i) <- b.(i) -. (f *. b.(k))
      end
    done
  done;
  (* back substitution *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Matrix.get a i j *. x.(j))
    done;
    x.(i) <- !s /. Matrix.get a i i
  done;
  x

let gauss a b = gauss_in_place (Matrix.copy a) (Array.copy b)

let gauss_matrix a bm =
  let n = Matrix.rows a in
  let cols = Matrix.cols bm in
  let out = Matrix.create ~rows:n ~cols in
  for j = 0 to cols - 1 do
    let x = gauss a (Matrix.col bm j) in
    Array.iteri (fun i v -> Matrix.set out i j v) x
  done;
  out

let inverse a = gauss_matrix a (Matrix.identity (Matrix.rows a))

type iter_stats = { iterations : int; residual : float; converged : bool }

(* Largest dense system the fallback chains will build; beyond this a
   failed iterative solve is reported as an error instead of silently
   blowing up memory/time on an O(n^3) elimination. *)
let direct_cap = 4096

(* --- solver selection -------------------------------------------------- *)

type method_ = Auto | Gauss_seidel | Sor | Bicgstab | Gmres | Gth | Direct

let method_ref = Atomic.make Auto
let set_method m = Atomic.set method_ref m
let current_method () = Atomic.get method_ref

let with_method m f =
  let old = Atomic.get method_ref in
  Atomic.set method_ref m;
  Fun.protect ~finally:(fun () -> Atomic.set method_ref old) f

(* The [--solver] names, aliases included. *)
let methods =
  [ ("auto", Auto);
    ("gs", Gauss_seidel);
    ("gauss-seidel", Gauss_seidel);
    ("sor", Sor);
    ("bicgstab", Bicgstab);
    ("gmres", Gmres);
    ("gth", Gth);
    ("direct", Direct) ]

(* Size heuristic for the automatic chain: systems with at least this
   many unknowns skip the stationary sweeps (whose spectral gap closes
   as diffusion-like state spaces grow) and try preconditioned Krylov
   first. *)
let krylov_threshold = 20_000

(* --- dense-materialization accounting ---------------------------------- *)

(* Every time a sparse system is expanded to a dense matrix (the direct
   fallbacks), this counter ticks.  Large-model paths must keep it at
   zero — the bench asserts so — and a dense expansion beyond the
   direct-solve cap is loud, because at that size it is a performance
   bug, not a fallback. *)
let dense_count_ref = Atomic.make 0
let dense_count () = Atomic.get dense_count_ref
let reset_dense_count () = Atomic.set dense_count_ref 0

let note_dense ~solver n =
  Atomic.incr dense_count_ref;
  if n > direct_cap then
    Diag.emitf Diag.Warning ~solver
      "dense materialization of a %d-state sparse system (above the %d direct-solve cap)"
      n direct_cap

(* Negative steady-state entries below this magnitude are ordinary
   floating-point noise; above it the clamp is reported. *)
let clamp_warn = 1e-9

let verify_tol_of tol = Float.max (tol *. 1e4) 1e-9

let inf_norm x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let residual_inf a x b =
  let n = Array.length b in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let s = Sparse.fold_row a i (fun acc j v -> acc +. (v *. x.(j))) 0.0 in
    worst := Float.max !worst (Float.abs (s -. b.(i)))
  done;
  !worst

let sweep ~omega a b x =
  let n = Array.length b in
  let delta = ref 0.0 in
  for i = 0 to n - 1 do
    let diag = ref 0.0 and s = ref 0.0 in
    Sparse.iter_row a i (fun j v -> if j = i then diag := v else s := !s +. (v *. x.(j)));
    if !diag = 0.0 then raise Singular;
    let xi' = (b.(i) -. !s) /. !diag in
    let xi'' = x.(i) +. (omega *. (xi' -. x.(i))) in
    let d = Float.abs (xi'' -. x.(i)) /. Float.max 1.0 (Float.abs xi'') in
    (* NaN must propagate so divergence is detected, not mistaken for a stall *)
    if Float.is_nan d || d > !delta then delta := d;
    x.(i) <- xi''
  done;
  !delta

(* Over-relaxation factor from an observed contraction ratio [rho] of the
   Gauss-Seidel sweeps (Young's optimal omega with rho_GS = rho_Jacobi^2);
   oscillating or divergent sweeps fall back to under-relaxation. *)
let adaptive_omega rho =
  if Float.is_finite rho && rho > 0.0 && rho < 1.0 then
    Float.min 1.95 (2.0 /. (1.0 +. sqrt (1.0 -. rho)))
  else 0.5

(* Core SOR loop; additionally estimates the per-sweep contraction ratio
   (used to pick the over-relaxation factor when escalating) and aborts
   early on numeric blow-up instead of sweeping a divergent iterate
   [max_iter] times. *)
let sor_rate ?(max_iter = 100_000) ?(tol = 1e-12) ?(omega = 1.0) ?x0 a b =
  let n = Array.length b in
  let x = match x0 with Some v -> Array.copy v | None -> Array.make n 0.0 in
  let k = ref 0 and delta = ref infinity in
  let prev = ref nan and rho = ref nan in
  let diverged = ref false and continue_ = ref true in
  while !continue_ do
    Deadline.check ();
    incr k;
    let d = sweep ~omega a b x in
    delta := d;
    if Float.is_nan d || d > 1e100 then begin
      diverged := true;
      continue_ := false
    end
    else begin
      if !prev > 0.0 then begin
        let r = d /. !prev in
        rho := if Float.is_nan !rho then r else 0.5 *. (!rho +. r)
      end;
      prev := d;
      if d <= tol || !k >= max_iter then continue_ := false
    end
  done;
  let converged = (not !diverged) && !delta <= tol in
  (x, { iterations = !k; residual = !delta; converged }, !rho)

let solver_name omega = if omega = 1.0 then "gauss_seidel" else "sor"

let sor ?max_iter ?tol ?(omega = 1.0) ?x0 a b =
  let x, stats, _ = sor_rate ?max_iter ?tol ~omega ?x0 a b in
  if not stats.converged then
    Diag.emitf Diag.Non_convergence ~solver:(solver_name omega)
      ~iterations:stats.iterations ~residual:stats.residual ?tolerance:tol
      (if Float.is_nan stats.residual || stats.residual > 1e100 then
         "diverged (iterate overflow) after %d sweeps"
       else "no convergence after %d sweeps")
      stats.iterations;
  (x, stats)

let gauss_seidel ?max_iter ?tol ?x0 a b = sor ?max_iter ?tol ~omega:1.0 ?x0 a b

(* --- Krylov dispatch --------------------------------------------------- *)

(* Best preconditioner the matrix supports: ILU(0) when it factors,
   Jacobi when the diagonal is merely nonzero, identity as last resort. *)
let precond_for a =
  match Krylov.ilu0 a with
  | Some p -> p
  | None -> ( match Krylov.jacobi a with Some p -> p | None -> Krylov.identity)

(* Row equilibration: scale every row to unit inf-norm.  Generator rows
   span the full rate range (orders of magnitude apart on stiff chains);
   without it the ILU pivots inherit that spread and the norm driving
   the Krylov stopping test is dominated by the fastest states.  The
   solution of [D A x = D b] is that of [A x = b], so callers verify
   against the original system as before. *)
let equilibrate a b =
  let n = Sparse.rows a in
  let d = Array.make n 1.0 in
  for i = 0 to n - 1 do
    let m = Sparse.fold_row a i (fun acc _ v -> Float.max acc (Float.abs v)) 0.0 in
    if m > 0.0 && m <> 1.0 then d.(i) <- 1.0 /. m
  done;
  (Sparse.scale_rows d a, Array.mapi (fun i v -> d.(i) *. v) b)

(* One Krylov solve with iterative refinement: on ill-conditioned systems
   the iteration stagnates a few digits short of [tol], but each pass
   still gains those digits — re-solving against the residual and adding
   the correction compounds them to full accuracy. *)
let krylov_refined variant ~tol a b p =
  let n = Array.length b in
  let run rhs =
    match variant with
    | `Bicgstab -> Krylov.bicgstab ~tol ~precond:p a rhs
    | `Gmres -> Krylov.gmres ~tol ~precond:p a rhs
  in
  let nrm2 v = sqrt (Array.fold_left (fun acc c -> acc +. (c *. c)) 0.0 v) in
  let bnorm = Float.max (nrm2 b) 1e-300 in
  let x, st0 = run b in
  let iters = ref st0.Krylov.iterations in
  let res = ref st0.Krylov.residual in
  let scratch = Array.make n 0.0 in
  let rounds = ref 0 in
  let stop = ref st0.Krylov.converged in
  while (not !stop) && !rounds < 2 do
    incr rounds;
    Sparse.par_mat_vec_into a x scratch;
    for i = 0 to n - 1 do
      scratch.(i) <- b.(i) -. scratch.(i)
    done;
    let d, std = run scratch in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. d.(i)
    done;
    iters := !iters + std.Krylov.iterations;
    Sparse.par_mat_vec_into a x scratch;
    for i = 0 to n - 1 do
      scratch.(i) <- b.(i) -. scratch.(i)
    done;
    let r = nrm2 scratch /. bnorm in
    (* stop when converged, or when a pass stops paying for itself *)
    if r <= tol || r >= 0.5 *. !res then stop := true;
    res := r
  done;
  (x, { Krylov.iterations = !iters; residual = !res; converged = !res <= tol })

let krylov_run variant ?(tol = 1e-12) a b =
  let a, b = equilibrate a b in
  let variant_name =
    match variant with `Bicgstab -> "bicgstab" | `Gmres -> "gmres"
  in
  (* Preconditioner ladder.  An ILU(0) factor on a pattern far from
     elimination-closed can make the iteration worse than a diagonal
     scaling, or than no preconditioner at all (BiCGStab's recursion is
     the fragile one) — on failure retry down the ladder and keep the
     best solve. *)
  let ladder =
    let tail = match Krylov.jacobi a with Some j -> [ j ] | None -> [] in
    let l = (precond_for a :: tail) @ [ Krylov.identity ] in
    List.filteri
      (fun i p ->
        List.for_all
          (fun (j, q) -> j >= i || q.Krylov.p_name <> p.Krylov.p_name)
          (List.mapi (fun j q -> (j, q)) l))
      l
  in
  let rec go iters best = function
    | [] ->
        let x, st, p = Option.get best in
        ( x,
          { st with Krylov.iterations = iters },
          Printf.sprintf "%s(%s)" variant_name p.Krylov.p_name )
    | p :: rest -> (
        let x, st = krylov_refined variant ~tol a b p in
        let iters = iters + st.Krylov.iterations in
        let best =
          match best with
          | Some (_, st0, _) when st0.Krylov.residual <= st.Krylov.residual ->
              best
          | _ -> Some (x, st, p)
        in
        if st.Krylov.converged then go iters best []
        else go iters best rest)
  in
  go 0 None ladder

(* --- the solver ladder ------------------------------------------------- *)

(* What one rung returned: its iterate, and whether the method's own
   stopping test held.  Acceptance is the driver's call. *)
type attempt = {
  x : float array;
  solver : string;  (* the method, as named in its diagnostics *)
  iterations : int option;  (* [None] for an elimination *)
  converged : bool;
  why : string option;  (* a method-specific failure reason *)
  info : string option;  (* provenance recorded when the answer is accepted *)
}

(* [Direct] is the entry point's own elimination: it is always accepted,
   with a warning when its residual fails verification. *)
type rung = Rung of { name : string; attempt : unit -> attempt } | Direct

(* What an entry point hands the driver. *)
type problem = {
  solver : string;  (* the entry point, as named on fallback and error records *)
  n : int;
  residual : float array -> float;  (* relative verification residual *)
  verify_tol : float;
  finish : float array -> float array;
  direct_name : string;
  direct : unit -> float array;
}

let reason a =
  match a.why with
  | Some w -> w
  | None when a.converged -> "iterate stalled: post-solve residual verification failed"
  | None -> "no convergence within iteration budget"

(* Climb the ladder and return the first verified answer.  A [forced]
   method is a ladder of exactly that rung: its failure is a single error,
   and its own iterate comes back.  Otherwise the [auto] ladder runs: every
   failed rung is a non-convergence record and every hop a fallback, and a
   ladder that runs out (only above [direct_cap]) returns its best iterate
   with an error. *)
let drive (p : problem) ~forced ~auto =
  let forced, ladder =
    match forced with Some r -> (true, [ r ]) | None -> (false, auto ())
  in
  let best = ref None in
  let rec go first = function
    | [] -> (
        match !best with
        | None -> raise Singular
        | Some (x, r) ->
            Diag.emitf Diag.Error ~solver:p.solver ~residual:r ~tolerance:p.verify_tol
              "system of size %d exceeds the direct-solve cap (%d); returning best \
               unverified iterate"
              p.n direct_cap;
            p.finish x)
    | rung :: rest -> (
        if not first then
          Diag.emitf Diag.Fallback ~solver:p.solver "escalating to %s"
            (match rung with Rung r -> r.name | Direct -> p.direct_name);
        match rung with
        | Direct ->
            let x = p.direct () in
            let r = p.residual x in
            if r > p.verify_tol then
              Diag.emit Diag.Warning ~solver:p.solver ~residual:r ~tolerance:p.verify_tol
                "direct-solve residual above verification tolerance";
            p.finish x
        | Rung { name; attempt } -> (
            match attempt () with
            | exception Singular ->
                if forced then begin
                  Diag.emitf Diag.Error ~solver:p.solver
                    "%s hit a zero diagonal (no fallback under --solver)" name;
                  raise Singular
                end;
                Diag.emitf Diag.Non_convergence ~solver:p.solver "%s hit a zero diagonal"
                  name;
                go false rest
            | a ->
                let r = p.residual a.x in
                let record sev msg =
                  Diag.emit sev ~solver:a.solver ?iterations:a.iterations ~residual:r
                    ~tolerance:p.verify_tol msg
                in
                if a.converged && r <= p.verify_tol then begin
                  (match (a.info, a.iterations) with
                  | Some msg, Some _ -> record Diag.Info msg
                  | Some msg, None -> Diag.emit Diag.Info ~solver:a.solver msg
                  | None, _ -> ());
                  p.finish a.x
                end
                else if forced then begin
                  record Diag.Error (reason a ^ " (no fallback under --solver)");
                  p.finish a.x
                end
                else begin
                  record Diag.Non_convergence (reason a);
                  (match !best with
                  | Some (_, r0) when not (r < r0) -> ()
                  | _ -> best := Some (a.x, r));
                  go false rest
                end))
  in
  go true ladder

(* The forcings every entry point honours alike. *)
let forced_common krylov = function
  | Bicgstab -> Some (krylov `Bicgstab)
  | Gmres -> Some (krylov `Gmres)
  | Direct -> Some Direct
  | Auto | Gauss_seidel | Sor | Gth -> None

(* The automatic ladder around an entry point's stationary rung: Krylov
   first at [krylov_threshold] unknowns and above; behind the stationary
   rung, direct elimination up to [direct_cap], else BiCGStab while it has
   not run yet. *)
let auto_ladder n ~krylov stationary =
  let bicgstab = krylov `Bicgstab in
  (if n >= krylov_threshold then [ bicgstab; krylov `Gmres ] else [])
  @ (stationary
    :: (if n <= direct_cap then [ Direct ]
        else if n < krylov_threshold then [ bicgstab ]
        else []))

(* Preconditioned Krylov on [system], the entry point's replaced-row
   system, built on first use. *)
let krylov_rung ~system ~tol ~note variant =
  let name =
    match variant with
    | `Bicgstab -> "preconditioned BiCGStab"
    | `Gmres -> "preconditioned GMRES"
  in
  Rung
    { name;
      attempt =
        (fun () ->
          let a, b = Lazy.force system in
          let x, st, solver = krylov_run variant ~tol a b in
          { x;
            solver;
            iterations = Some st.Krylov.iterations;
            converged = st.Krylov.converged;
            why = None;
            info = Some note }) }

(* An entry point's sweep operator: [max_iter] sweeps at [omega] from the
   given start (or its default one), returning the iterate, its stats and
   the observed contraction ratio. *)
type sweeps =
  max_iter:int -> omega:float -> float array option -> float array * iter_stats * float

(* Forced SOR: a short Gauss-Seidel probe estimates the contraction ratio
   that picks the over-relaxation factor; the over-relaxed run then gets a
   bounded trial window and must beat the probe's step size, or the rest
   of the budget runs at omega = 1.  Young's formula assumes a property-A
   ordering and can oscillate without blowing up on a general sweep
   operator, which would otherwise burn the whole [max_iter] budget
   producing nothing. *)
let staged_sor ~max_iter (sweeps : sweeps) =
  let probe = max 10 (min 100 (max_iter / 10)) in
  let x0, st0, rho = sweeps ~max_iter:probe ~omega:1.0 None in
  let omega = adaptive_omega rho in
  let trial = max 50 (min 1_000 (max_iter / 20)) in
  let x1, st1, _ = sweeps ~max_iter:trial ~omega (Some x0) in
  let x, st =
    if st1.converged then (x1, st1)
    else
      let omega, x = if st1.residual < st0.residual then (omega, x1) else (1.0, x0) in
      let x, st, _ = sweeps ~max_iter:(max_iter - trial) ~omega (Some x) in
      (x, { st with iterations = trial + st.iterations })
  in
  (x, { st with iterations = probe + st.iterations })

(* The Gauss-Seidel and forced-SOR rungs over an entry point's sweep
   operator, named [prefix ^ "gauss_seidel"] and [prefix ^ "sor"]. *)
let sweep_rungs ~prefix ~max_iter (sweeps : sweeps) =
  let rung name solver run =
    Rung
      { name;
        attempt =
          (fun () ->
            let x, (st : iter_stats) = run () in
            { x;
              solver;
              iterations = Some st.iterations;
              converged = st.converged;
              why = None;
              info = None }) }
  in
  ( rung "Gauss-Seidel sweeps" (prefix ^ "gauss_seidel") (fun () ->
        let x, st, _ = sweeps ~max_iter ~omega:1.0 None in
        (x, st)),
    rung "SOR sweeps" (prefix ^ "sor") (fun () -> staged_sor ~max_iter sweeps) )

(* Robust Ax = b.  Verified against ||Ax - b||_inf / max(1, ||b||_inf). *)
let solve ?(max_iter = 100_000) ?(tol = 1e-12) a b =
  let n = Array.length b in
  let scale = Float.max 1.0 (inf_norm b) in
  let p =
    { solver = "linsolve";
      n;
      residual = (fun x -> residual_inf a x b /. scale);
      verify_tol = Float.max (tol *. 1e4) 1e-8;
      finish = Fun.id;
      direct_name = "direct Gaussian elimination";
      direct =
        (fun () ->
          note_dense ~solver:"linsolve" n;
          try gauss (Sparse.to_dense a) b
          with Singular ->
            Diag.emit Diag.Error ~solver:"gauss"
              "direct solve hit a singular pivot: system has no unique solution";
            raise Singular) }
  in
  let krylov =
    krylov_rung ~system:(lazy (a, b)) ~tol:(Float.min tol 1e-10)
      ~note:(Printf.sprintf "converged (n=%d, nnz=%d)" n (Sparse.nnz a))
  in
  let gs, sor =
    sweep_rungs ~prefix:"" ~max_iter (fun ~max_iter ~omega x0 ->
        sor_rate ~max_iter ~tol ~omega ?x0 a b)
  in
  (* GTH applies to CTMC steady states only: a general system runs the
     automatic ladder *)
  drive p
    ~forced:
      (match current_method () with
      | Gauss_seidel -> Some gs
      | Sor -> Some sor
      | m -> forced_common krylov m)
    ~auto:(fun () -> auto_ladder n ~krylov gs)

let normalize_l1 x =
  let s = Array.fold_left ( +. ) 0.0 x in
  if s <> 0.0 then Array.iteri (fun i v -> x.(i) <- v /. s) x

(* Clamp tiny negative probabilities, reporting clamped mass above noise
   level, then renormalize. *)
let clamp_normalize ~solver x =
  let worst = ref 0.0 in
  Array.iteri
    (fun i v ->
      if v < 0.0 then begin
        if -.v > !worst then worst := -.v;
        x.(i) <- 0.0
      end)
    x;
  if !worst > clamp_warn then
    Diag.emitf Diag.Warning ~solver ~residual:!worst
      "clamped negative probability entries (largest magnitude %.3g)" !worst;
  normalize_l1 x;
  x

(* --- DTMC steady state ------------------------------------------------ *)

let dtmc_residual p x =
  let y = Sparse.vec_mat x p in
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. x.(i)))) y;
  !worst

let dtmc_direct p =
  (* pi (P - I) = 0 with the last equation replaced by sum pi = 1 *)
  let n = Sparse.rows p in
  note_dense ~solver:"dtmc_steady_state" n;
  let a = Matrix.create ~rows:n ~cols:n in
  Sparse.iter p (fun i j v -> Matrix.add_to a j i v);
  for i = 0 to n - 1 do
    Matrix.add_to a i i (-1.0)
  done;
  for j = 0 to n - 1 do
    Matrix.set a (n - 1) j 1.0
  done;
  let b = Array.make n 0.0 in
  b.(n - 1) <- 1.0;
  gauss a b

(* A = (P - I)^T with its last row replaced by ones, b = e_{n-1}: the CSR
   form of the replaced-equation system [dtmc_direct] eliminates. *)
let dtmc_krylov_system p =
  let n = Sparse.rows p in
  let pt = Sparse.transpose p in
  let a =
    Sparse.of_rows ~rows:n ~cols:n (fun i ->
        if i = n - 1 then List.init n (fun j -> (j, 1.0))
        else
          (i, -1.0)
          :: List.rev (Sparse.fold_row pt i (fun acc j v -> (j, v) :: acc) []))
  in
  let b = Array.make n 0.0 in
  b.(n - 1) <- 1.0;
  (a, b)

let dtmc_steady_state ?(max_iter = 1_000_000) ?(tol = 1e-13) p =
  let n = Sparse.rows p in
  if n = 0 then [||]
  else if n = 1 then [| 1.0 |]
  else begin
    let solver = "dtmc_steady_state" in
    let prob =
      { solver;
        n;
        residual = (fun x -> dtmc_residual p x /. Float.max 1.0 (inf_norm x));
        verify_tol = verify_tol_of tol;
        finish = clamp_normalize ~solver;
        direct_name = "direct solve of pi (P - I) = 0";
        direct = (fun () -> dtmc_direct p) }
    in
    let krylov =
      krylov_rung ~system:(lazy (dtmc_krylov_system p)) ~tol:(Float.max 1e-12 (tol *. 10.0))
        ~note:(Printf.sprintf "krylov steady state (n=%d, nnz=%d)" n (Sparse.nnz p))
    in
    let power () =
      (* Iterate on the transpose: [vec_mat x p] and [mat_vec pT x] add the
         same nonnegative terms in the same per-entry order (increasing
         source row), so the switch is bit-identical — and the row-parallel
         kernel applies, where the scatter form could not be partitioned
         without changing the reduction order. *)
      let pt = Sparse.transpose p in
      let x = ref (Array.make n (1.0 /. float_of_int n)) in
      let xprev = ref (Array.copy !x) in
      let k = ref 0 and delta = ref infinity and oscillating = ref false in
      while !delta > tol && !k < max_iter && not !oscillating do
        Deadline.check ();
        let x' = Sparse.par_mat_vec pt !x in
        normalize_l1 x';
        let d = ref 0.0 and d2 = ref 0.0 in
        Array.iteri
          (fun i v ->
            d := Float.max !d (Float.abs (v -. !x.(i)));
            d2 := Float.max !d2 (Float.abs (v -. !xprev.(i))))
          x';
        delta := !d;
        (* x_{k+1} ~ x_{k-1} while x_{k+1} <> x_k: the iterate entered a
           period-2 limit cycle (periodic chain) and will never converge *)
        if !k > 2 && !d2 <= tol && !d > tol then oscillating := true;
        xprev := !x;
        x := x';
        incr k
      done;
      { x = !x;
        solver;
        iterations = Some !k;
        converged = !delta <= tol;
        why =
          (if !oscillating then
             Some "power iteration entered a period-2 limit cycle (periodic chain)"
           else None);
        info = None }
    in
    (* no GS/SOR/GTH rung exists for a DTMC: those forcings run the
       automatic ladder *)
    drive prob
      ~forced:(forced_common krylov (current_method ()))
      ~auto:(fun () ->
        auto_ladder n ~krylov (Rung { name = "power iteration"; attempt = power }))
  end

(* --- CTMC steady state ------------------------------------------------ *)

let steady_state_direct q =
  (* replace last equation of Q^T pi = 0 with sum pi = 1 *)
  let n = Sparse.rows q in
  note_dense ~solver:"ctmc_steady_state" n;
  let a = Matrix.create ~rows:n ~cols:n in
  Sparse.iter q (fun i j v -> Matrix.set a j i v);
  for j = 0 to n - 1 do
    Matrix.set a (n - 1) j 1.0
  done;
  let b = Array.make n 0.0 in
  b.(n - 1) <- 1.0;
  gauss a b

let ctmc_residual q x =
  let r = Sparse.vec_mat x q in
  inf_norm r

(* Gauss-Seidel / SOR sweeps on Q^T x = 0 with per-sweep normalization:
   the thesis' steady-state method; converges orders of magnitude faster
   than power iteration on stiff chains.  Starts from [x0] (uniform when
   [None]) and returns the iterate, its stats and the observed
   contraction ratio. *)
let ctmc_sweeps ~omega ~max_iter ~tol qt x0 =
  let n = Sparse.rows qt in
  let x =
    match x0 with Some v -> Array.copy v | None -> Array.make n (1.0 /. float_of_int n)
  in
  let k = ref 0 and delta = ref infinity in
  let prev = ref nan and rho = ref nan in
  while !delta > tol && !k < max_iter do
    Deadline.check ();
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      let diag = ref 0.0 and s = ref 0.0 in
      Sparse.iter_row qt i (fun j v ->
          if j = i then diag := v else s := !s +. (v *. x.(j)));
      if !diag <> 0.0 then begin
        let xi' = -. !s /. !diag in
        let xi'' = x.(i) +. (omega *. (xi' -. x.(i))) in
        (* floor the change denominator well above the denormal range:
           entries below 1e-60 of a normalized probability vector cannot
           influence any measure, and their floating-point twitching must
           not keep an otherwise-converged sweep iterating forever *)
        let change = Float.abs (xi'' -. x.(i)) /. Float.max 1e-60 (Float.abs xi'') in
        if change > !d then d := change;
        x.(i) <- xi''
      end
    done;
    normalize_l1 x;
    delta := !d;
    if !prev > 0.0 then begin
      let r = !d /. !prev in
      rho := if Float.is_nan !rho then r else 0.5 *. (!rho +. r)
    end;
    prev := !d;
    incr k
  done;
  (x, { iterations = !k; residual = !delta; converged = !delta <= tol }, !rho)

(* Half-bandwidth of the sparsity pattern: max |i - j| over stored entries. *)
let bandwidth q =
  let b = ref 0 in
  Sparse.iter q (fun i j _ ->
      let d = abs (i - j) in
      if d > !b then b := d);
  !b

(* Grassmann-Taksar-Heyman state elimination on band storage.  When every
   transition of the generator satisfies |i - j| <= bw, eliminating states
   in decreasing index order creates fill only between the surviving
   neighbours of the eliminated state, which all lie inside the band, so
   the O(n * bw^2) cost and O(n * bw) memory hold throughout.  The
   algorithm is subtraction-free: every intermediate quantity is a sum or
   product of nonnegative rates, which keeps the stationary vector
   componentwise accurate even on stiff or nearly-decomposable chains
   where sweep methods stall.  Returns [None] when some state has no
   transition to a lower-indexed survivor (chain not irreducible). *)
let ctmc_gth_banded q bw =
  let n = Sparse.rows q in
  let w = (2 * bw) + 1 in
  let band = Array.make_matrix n w 0.0 in
  Sparse.iter q (fun i j v -> if i <> j then band.(i).(j - i + bw) <- v);
  let s = Array.make n 0.0 in
  let ok = ref true in
  let k = ref (n - 1) in
  while !ok && !k >= 1 do
    let kk = !k in
    let lo = max 0 (kk - bw) in
    let sk = ref 0.0 in
    for j = lo to kk - 1 do
      sk := !sk +. band.(kk).(j - kk + bw)
    done;
    if !sk <= 0.0 then ok := false
    else begin
      s.(kk) <- !sk;
      for i = lo to kk - 1 do
        let qik = band.(i).(kk - i + bw) in
        if qik > 0.0 then begin
          let f = qik /. !sk in
          for j = lo to kk - 1 do
            if j <> i then begin
              let qkj = band.(kk).(j - kk + bw) in
              if qkj > 0.0 then
                band.(i).(j - i + bw) <- band.(i).(j - i + bw) +. (f *. qkj)
            end
          done
        end
      done
    end;
    decr k
  done;
  if not !ok then None
  else begin
    let pi = Array.make n 0.0 in
    pi.(0) <- 1.0;
    for kk = 1 to n - 1 do
      let lo = max 0 (kk - bw) in
      let acc = ref 0.0 in
      for i = lo to kk - 1 do
        acc := !acc +. (pi.(i) *. band.(i).(kk - i + bw))
      done;
      pi.(kk) <- !acc /. s.(kk)
    done;
    normalize_l1 pi;
    Some pi
  end

(* A = (Q^T with its last row replaced by ones), b = e_{n-1}: the exact
   system [steady_state_direct] eliminates, kept in CSR so the Krylov
   tier never touches a dense matrix.  Built by raw-array splicing: rows
   0..n-2 of Q^T are blitted, the last row becomes n explicit ones. *)
let ctmc_krylov_system q =
  let n = Sparse.rows q in
  let qt = Sparse.transpose q in
  let rp, ci, v = Sparse.raw qt in
  let keep = rp.(n - 1) in
  let nnz' = keep + n in
  let rp' = Array.make (n + 1) 0 in
  Array.blit rp 0 rp' 0 n;
  rp'.(n) <- nnz';
  let ci' = Array.make nnz' 0 and v' = Array.make nnz' 0.0 in
  Array.blit ci 0 ci' 0 keep;
  Array.blit v 0 v' 0 keep;
  for j = 0 to n - 1 do
    ci'.(keep + j) <- j;
    v'.(keep + j) <- 1.0
  done;
  let b = Array.make n 0.0 in
  b.(n - 1) <- 1.0;
  (Sparse.of_raw ~rows:n ~cols:n ~row_ptr:rp' ~col_idx:ci' ~values:v', b)

let ctmc_steady_state ?(max_iter = 200_000) ?(tol = 1e-13) ?(direct_threshold = 500)
    q =
  let n = Sparse.rows q in
  if n = 0 then [||]
  else if n = 1 then [| 1.0 |]
  else begin
    let solver = "ctmc_steady_state" in
    let qnorm = Float.max 1e-300 (2.0 *. inf_norm (Sparse.diag q)) in
    let prob =
      { solver;
        n;
        residual = (fun x -> ctmc_residual q x /. qnorm);
        verify_tol = verify_tol_of tol;
        finish = clamp_normalize ~solver;
        direct_name = "direct solve of pi Q = 0";
        direct = (fun () -> steady_state_direct q) }
    in
    let krylov =
      krylov_rung ~system:(lazy (ctmc_krylov_system q)) ~tol:(Float.max 1e-12 (tol *. 10.0))
        ~note:(Printf.sprintf "krylov steady state (n=%d, nnz=%d)" n (Sparse.nnz q))
    in
    let qt = lazy (Sparse.transpose q) in
    let gs, sor =
      sweep_rungs ~prefix:"ctmc_" ~max_iter (fun ~max_iter ~omega x0 ->
          ctmc_sweeps ~omega ~max_iter ~tol (Lazy.force qt) x0)
    in
    let gth bw =
      Rung
        { name = "banded GTH elimination";
          attempt =
            (fun () ->
              let x, why =
                match if bw > 0 then ctmc_gth_banded q bw else None with
                | Some x -> (x, None)
                | None ->
                    ( Array.make n (1.0 /. float_of_int n),
                      Some "banded GTH elimination found no transition to a lower-indexed state" )
              in
              { x;
                solver;
                iterations = None;
                converged = why = None;
                why;
                info = Some (Printf.sprintf "banded GTH elimination (n=%d, bandwidth=%d)" n bw) }) }
    in
    let auto () =
      if n <= direct_threshold then [ Direct ]
      else begin
        (* A banded generator whose elimination cost n*bw^2 fits inside the
           direct budget (threshold^3) is solved exactly by subtraction-free
           GTH elimination: O(n*bw^2) work, and immune to the sweep stalls
           that nearly-decomposable lattice chains provoke. *)
        let bw = bandwidth q in
        let band_cost = float_of_int n *. float_of_int bw *. float_of_int bw in
        let banded = bw > 0 && band_cost <= float_of_int direct_threshold ** 3.0 in
        (if banded then [ gth bw ] else []) @ auto_ladder n ~krylov gs
      end
    in
    drive prob
      ~forced:
        (match current_method () with
        | Gauss_seidel -> Some gs
        | Sor -> Some sor
        (* forced GTH runs the banded elimination whatever the bandwidth:
           the caller asked for the exact subtraction-free answer and
           accepts the n*bw^2 cost *)
        | Gth -> Some (gth (bandwidth q))
        | m -> forced_common krylov m)
      ~auto
  end

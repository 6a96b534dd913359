(* Tests for the diagnostic sink and the solver fallback chains.

   Each scenario pins down both the numeric answer and the exact
   (severity, solver) sequence of emitted diagnostics, so a regression in
   the escalation logic is caught even when the final numbers stay right. *)
open Sharpe_numerics

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

let sev_solver recs =
  List.map (fun r -> (Diag.severity_to_string r.Diag.severity, r.Diag.solver)) recs

let chain = Alcotest.(check (list (pair string string)))

let is_infix needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Sink mechanics                                                      *)

let test_capture_and_context () =
  let (), recs =
    Diag.capture (fun () ->
        Diag.with_context "outer" (fun () ->
            Diag.with_context "inner" (fun () ->
                Diag.emit Diag.Warning ~solver:"t" ~iterations:3 "msg")))
  in
  match recs with
  | [ r ] ->
      Alcotest.(check (list string)) "context" [ "outer"; "inner" ] r.Diag.context;
      Alcotest.(check (option int)) "iterations" (Some 3) r.Diag.iterations;
      Alcotest.(check (option (float 0.))) "residual" None r.Diag.residual
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

let test_capture_isolation () =
  (* nested captures: the inner sink sees the inner record, and so does the
     outer one (broadcast), but records emitted after the inner capture ends
     reach only the outer sink *)
  let (), outer =
    Diag.capture (fun () ->
        let (), inner =
          Diag.capture (fun () -> Diag.emit Diag.Info ~solver:"a" "one")
        in
        Alcotest.(check int) "inner count" 1 (List.length inner);
        Diag.emit Diag.Info ~solver:"b" "two")
  in
  chain "outer sees both" [ ("info", "a"); ("info", "b") ] (sev_solver outer)

let test_severity_order () =
  let open Diag in
  let ranks = List.map severity_rank [ Info; Warning; Fallback; Non_convergence; Error ] in
  Alcotest.(check (list int)) "strictly increasing" (List.sort_uniq compare ranks) ranks

let test_json_shape () =
  let (), recs =
    Diag.capture (fun () ->
        Diag.emit Diag.Error ~solver:"s\"x" ~residual:0.5 "bad \"quote\"")
  in
  let json = Diag.records_to_json recs in
  let contains needle =
    Alcotest.(check bool) needle true
      (is_infix needle json)
  in
  contains "\"severity\":\"error\"";
  contains "\"solver\":\"s\\\"x\"";
  contains "\"residual\":0.5";
  contains "\"iterations\":null"

(* ------------------------------------------------------------------ *)
(* Solver ladders                                                      *)

(* not diagonally dominant: plain Gauss-Seidel diverges on this system *)
let awkward () =
  Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 3.0); (1, 1, 1.0) ]

(* two 2-state clusters with internal rates O(1) coupled at 1e-11: the
   sweep iteration cannot cross the coupling in any reasonable budget *)
let ncd_generator () =
  let e = 1e-11 in
  let edges =
    [ (0, 1, 1.0); (1, 0, 2.0); (0, 2, e); (2, 0, 2.0 *. e); (2, 3, 1.0); (3, 2, 2.0) ]
  in
  let diag =
    let d = Array.make 4 0.0 in
    List.iter (fun (i, _, r) -> d.(i) <- d.(i) -. r) edges;
    Array.to_list (Array.mapi (fun i r -> (i, i, r)) d)
  in
  Sparse.of_triplets ~rows:4 ~cols:4 (edges @ diag)

(* period 2: state 0 moves to one of [n - 1] leaves, every leaf returns to
   0, so power iteration cycles; pi = (1/2, 1/(2(n-1)), ...) *)
let star_dtmc n =
  let leaves = List.init (n - 1) (fun i -> i + 1) in
  let w = 1.0 /. float_of_int (n - 1) in
  Sparse.of_triplets ~rows:n ~cols:n
    (List.map (fun i -> (0, i, w)) leaves @ List.map (fun i -> (i, 0, 1.0)) leaves)

let star_pi n = Array.init n (fun i -> if i = 0 then 0.5 else 0.5 /. float_of_int (n - 1))

(* One row per (entry point, input, method): the answer, when one is
   defined, and the exact (severity, solver) chain of diagnostics. *)
type ladder_row = {
  name : string;
  meth : Linsolve.method_;
  run : unit -> float array;
  exact : (float array * float) option;  (* the answer and its tolerance *)
  expect : (string * string) list;
}

let ladder_rows =
  let big = 4097 (* one state above the direct-solve cap *) in
  [ { name = "solve escalates to direct";
      meth = Linsolve.Auto;
      run = (fun () -> Linsolve.solve (awkward ()) [| 5.0; 4.0 |]);
      exact = Some ([| 0.6; 2.2 |], 1e-9);
      expect = [ ("non-convergence", "gauss_seidel"); ("fallback", "linsolve") ] };
    { name = "solve forced failure";
      meth = Linsolve.Gauss_seidel;
      run = (fun () -> Linsolve.solve (awkward ()) [| 5.0; 4.0 |]);
      exact = None;
      expect = [ ("error", "gauss_seidel") ] };
    { name = "ctmc small chain goes direct silently";
      meth = Linsolve.Auto;
      run = (fun () -> Linsolve.ctmc_steady_state (ncd_generator ()));
      exact = Some ([| 4.0 /. 9.0; 2.0 /. 9.0; 2.0 /. 9.0; 1.0 /. 9.0 |], 1e-6);
      expect = [] };
    { name = "ctmc NCD fallback chain";
      meth = Linsolve.Auto;
      run =
        (fun () ->
          Linsolve.ctmc_steady_state ~direct_threshold:0 ~max_iter:20_000
            (ncd_generator ()));
      exact = Some ([| 4.0 /. 9.0; 2.0 /. 9.0; 2.0 /. 9.0; 1.0 /. 9.0 |], 1e-6);
      expect =
        [ ("non-convergence", "ctmc_gauss_seidel"); ("fallback", "ctmc_steady_state") ] };
    { name = "ctmc forced failure";
      meth = Linsolve.Gauss_seidel;
      run =
        (fun () ->
          Linsolve.ctmc_steady_state ~direct_threshold:0 ~max_iter:20_000
            (ncd_generator ()));
      exact = None;
      expect = [ ("error", "ctmc_gauss_seidel") ] };
    { name = "dtmc periodic fallback";
      meth = Linsolve.Auto;
      run = (fun () -> Linsolve.dtmc_steady_state (star_dtmc 3));
      exact = Some (star_pi 3, 1e-9);
      expect = [ ("non-convergence", "dtmc_steady_state"); ("fallback", "dtmc_steady_state") ] };
    (* a substochastic matrix has no pi P = pi: the forced Krylov solve
       converges on the replaced-row system, fails verification, and its
       own iterate (not a uniform vector) comes back *)
    { name = "dtmc forced failure";
      meth = Linsolve.Bicgstab;
      run =
        (fun () ->
          Linsolve.dtmc_steady_state
            (Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 0.5); (1, 1, 0.5) ]));
      exact = Some ([| 0.0; 1.0 |], 1e-9);
      expect = [ ("error", "bicgstab(ilu0)") ] };
    { name = "dtmc periodic above direct cap";
      meth = Linsolve.Auto;
      run = (fun () -> Linsolve.dtmc_steady_state (star_dtmc big));
      exact = Some (star_pi big, 1e-9);
      expect =
        [ ("non-convergence", "dtmc_steady_state");
          ("fallback", "dtmc_steady_state");
          ("info", "bicgstab(ilu0)") ] } ]

let ladder_case r =
  Alcotest.test_case r.name `Quick (fun () ->
      let x, recs = Diag.capture (fun () -> Linsolve.with_method r.meth r.run) in
      Option.iter
        (fun (exact, tol) ->
          Array.iteri
            (fun i v -> Alcotest.(check (float tol)) (Printf.sprintf "x%d" i) v x.(i))
            exact)
        r.exact;
      chain "diagnostic chain" r.expect (sev_solver recs))

let test_solve_quiet_when_convergent () =
  (* diagonally dominant: Gauss-Seidel converges, no diagnostics at all *)
  let a =
    Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 4.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0) ]
  in
  let b = [| 9.0; 7.0 |] in
  let x, recs = Diag.capture (fun () -> Linsolve.solve a b) in
  check_float "residual" 0.0 (Linsolve.residual_inf a x b);
  Alcotest.(check int) "silent" 0 (List.length recs)

let test_gauss_seidel_stats () =
  let a =
    Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 4.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0) ]
  in
  let (_, st), recs = Diag.capture (fun () -> Linsolve.gauss_seidel a [| 9.0; 7.0 |]) in
  Alcotest.(check bool) "converged" true st.Linsolve.converged;
  Alcotest.(check bool) "few sweeps" true (st.Linsolve.iterations < 100);
  Alcotest.(check bool) "tiny change" true (st.Linsolve.residual <= 1e-12);
  Alcotest.(check int) "no diagnostics" 0 (List.length recs)

let test_gauss_seidel_divergence_diagnosed () =
  let (_, st), recs =
    Diag.capture (fun () -> Linsolve.gauss_seidel (awkward ()) [| 5.0; 4.0 |])
  in
  Alcotest.(check bool) "not converged" false st.Linsolve.converged;
  chain "one record" [ ("non-convergence", "gauss_seidel") ] (sev_solver recs)

(* ------------------------------------------------------------------ *)
(* CTMC well-formedness and uniformization warnings                    *)

let test_ctmc_validate_unreachable () =
  let c = Sharpe_markov.Ctmc.make ~n:3 [ (0, 1, 1.0); (1, 0, 2.0); (2, 0, 1.0) ] in
  let (), recs =
    Diag.capture (fun () ->
        Sharpe_markov.Ctmc.validate ~names:(fun i -> [| "up"; "down"; "iso" |].(i)) c)
  in
  match recs with
  | [ r ] ->
      Alcotest.(check string) "severity" "warning" (Diag.severity_to_string r.Diag.severity);
      Alcotest.(check bool) "names the state" true
        (is_infix "iso" r.Diag.message)
  | l -> Alcotest.failf "expected one warning, got %d records" (List.length l)

let test_ctmc_validate_clean () =
  let c = Sharpe_markov.Ctmc.make ~n:2 [ (0, 1, 1.0); (1, 0, 2.0) ] in
  let (), recs = Diag.capture (fun () -> Sharpe_markov.Ctmc.validate c) in
  Alcotest.(check int) "silent" 0 (List.length recs)

let test_ctmc_make_rejects_nan () =
  Alcotest.(check bool) "nan rate rejected" true
    (try
       ignore (Sharpe_markov.Ctmc.make ~n:2 [ (0, 1, Float.nan) ]);
       false
     with Invalid_argument _ -> true)

let test_cumulative_truncation_warning () =
  (* lambda ~ 2, t = 4e6 => ~8e6 uniformization steps, past the 5M cap *)
  let c = Sharpe_markov.Ctmc.make ~n:2 [ (0, 1, 1.0); (1, 0, 2.0) ] in
  let t = 4.0e6 in
  let l, recs =
    Diag.capture (fun () ->
        Sharpe_markov.Ctmc.cumulative c ~init:[| 1.0; 0.0 |] t)
  in
  (* the truncated series only accounts for part of [0, t] — that is what
     the warning reports — but the occupancy split of the covered span is
     still the steady-state 2/3 : 1/3 *)
  let covered = l.(0) +. l.(1) in
  Alcotest.(check bool) "series was cut short" true (covered < 0.99 *. t);
  check_float_loose "occupancy split" (2.0 /. 3.0) (l.(0) /. covered);
  let warnings =
    List.filter (fun r -> r.Diag.severity = Diag.Warning) recs
  in
  match warnings with
  | [ r ] ->
      Alcotest.(check bool) "mentions truncation" true
        (is_infix "truncated" r.Diag.message);
      Alcotest.(check bool) "reports shortfall" true
        (match r.Diag.residual with Some s -> s >= 0.0 && s < t | None -> false)
  | l -> Alcotest.failf "expected one truncation warning, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Language level: per-statement recovery and error reporting          *)

let test_interp_recovers_per_statement () =
  let src = "expr nosuchvar\nexpr 2+2\n" in
  let buf = Buffer.create 64 in
  let out = Sharpe_lang.Interp.run_program ~print:(Buffer.add_string buf) src in
  Alcotest.(check int) "one failed statement" 1 out.Sharpe_lang.Interp.failed_statements;
  Alcotest.(check bool) "later statement still ran" true
    (is_infix "4" (Buffer.contents buf));
  let errors =
    List.filter
      (fun r -> r.Diag.severity = Diag.Error)
      out.Sharpe_lang.Interp.diagnostics
  in
  match errors with
  | [ r ] ->
      Alcotest.(check (list string)) "statement context" [ "statement 1" ] r.Diag.context
  | l -> Alcotest.failf "expected one error, got %d" (List.length l)

let test_interp_parse_error_is_diagnostic () =
  let out = Sharpe_lang.Interp.run_program ~print:ignore "markov )(" in
  Alcotest.(check bool) "failed" true (out.Sharpe_lang.Interp.failed_statements > 0);
  Alcotest.(check bool) "parser error recorded" true
    (List.exists
       (fun r -> r.Diag.severity = Diag.Error && r.Diag.solver = "parser")
       out.Sharpe_lang.Interp.diagnostics)

let suite =
  [ Alcotest.test_case "capture and context" `Quick test_capture_and_context;
    Alcotest.test_case "capture isolation" `Quick test_capture_isolation;
    Alcotest.test_case "severity order" `Quick test_severity_order;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "solve quiet when convergent" `Quick test_solve_quiet_when_convergent;
    Alcotest.test_case "gauss_seidel iter_stats" `Quick test_gauss_seidel_stats;
    Alcotest.test_case "gauss_seidel divergence diagnosed" `Quick
      test_gauss_seidel_divergence_diagnosed ]
  @ List.map ladder_case ladder_rows
  @ [ Alcotest.test_case "ctmc validate unreachable" `Quick test_ctmc_validate_unreachable;
      Alcotest.test_case "ctmc validate clean" `Quick test_ctmc_validate_clean;
      Alcotest.test_case "ctmc make rejects nan" `Quick test_ctmc_make_rejects_nan;
      Alcotest.test_case "cumulative truncation warning" `Quick
        test_cumulative_truncation_warning;
      Alcotest.test_case "interp per-statement recovery" `Quick
        test_interp_recovers_per_statement;
      Alcotest.test_case "interp parse error diagnostic" `Quick
        test_interp_parse_error_is_diagnostic ]

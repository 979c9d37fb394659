type op =
  | Lookup of int
  | Insert of int * int
  | Remove of int
  | Put_if_absent of int * int
  | Replace of int * int
  | Replace_if of int * int * int
  | Remove_if of int * int

type event = {
  thread : int;
  op : op;
  result : int option;
  inv : int;
  res : int;
}

module type IMAP = Ct_util.Map_intf.CONCURRENT_MAP with type key = int

(* ------------------------------ recording -------------------------- *)

module Apply (M : IMAP) = struct
  let apply t = function
    | Lookup k -> M.lookup t k
    | Insert (k, v) -> M.add t k v
    | Remove k -> M.remove t k
    | Put_if_absent (k, v) -> M.put_if_absent t k v
    | Replace (k, v) -> M.replace t k v
    | Replace_if (k, expected, v) ->
        if M.replace_if t k ~expected v then Some 1 else Some 0
    | Remove_if (k, expected) ->
        if M.remove_if t k ~expected then Some 1 else Some 0
end

let record (module M : IMAP) (scripts : op list list) : event list =
  let module A = Apply (M) in
  let t = M.create () in
  let clock = Atomic.make 0 in
  let n = List.length scripts in
  let barrier = Atomic.make 0 in
  let run thread script =
    Atomic.incr barrier;
    while Atomic.get barrier < n do
      Domain.cpu_relax ()
    done;
    List.map
      (fun op ->
        let inv = Atomic.fetch_and_add clock 1 in
        let result = A.apply t op in
        let res = Atomic.fetch_and_add clock 1 in
        { thread; op; result; inv; res })
      script
  in
  let domains =
    List.mapi (fun i script -> Domain.spawn (fun () -> run i script)) scripts
  in
  List.concat_map Domain.join domains

(* ------------------------- sequential spec ------------------------- *)

let sequential_apply model op =
  let find k = List.assoc_opt k model in
  match op with
  | Lookup k -> (model, find k)
  | Insert (k, v) ->
      let prev = find k in
      ((k, v) :: List.remove_assoc k model, prev)
  | Remove k ->
      let prev = find k in
      (List.remove_assoc k model, prev)
  | Put_if_absent (k, v) -> (
      match find k with
      | Some _ as prev -> (model, prev)
      | None -> ((k, v) :: model, None))
  | Replace (k, v) -> (
      match find k with
      | Some _ as prev -> ((k, v) :: List.remove_assoc k model, prev)
      | None -> (model, None))
  | Replace_if (k, expected, v) -> (
      match find k with
      | Some cur when cur = expected -> ((k, v) :: List.remove_assoc k model, Some 1)
      | Some _ | None -> (model, Some 0))
  | Remove_if (k, expected) -> (
      match find k with
      | Some cur when cur = expected -> (List.remove_assoc k model, Some 1)
      | Some _ | None -> (model, Some 0))

(* ------------------------------ checking --------------------------- *)

(* Wing-Gong search: pick any minimal operation (per-thread program
   order + real-time order) whose recorded result matches the model,
   apply it, recurse.  Memoize on (per-thread progress, model). *)
let check (history : event list) : bool =
  let threads =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let cur = try Hashtbl.find tbl e.thread with Not_found -> [] in
        Hashtbl.replace tbl e.thread (e :: cur))
      history;
    Hashtbl.fold
      (fun _ evs acc ->
        (* [evs] accumulated in reverse; [List.rev] restores the
           history's per-thread order and the stable sort keeps it when
           stamps tie.  A plain sort on [inv] alone could flip two
           equal-stamp events of one thread, inventing a program order
           the thread never executed. *)
        let in_order = List.rev evs in
        Array.of_list (List.stable_sort (fun a b -> compare a.inv b.inv) in_order)
        :: acc)
      tbl []
    |> Array.of_list
  in
  let n_threads = Array.length threads in
  let total = List.length history in
  let visited = Hashtbl.create 1024 in
  let canonical model = List.sort compare model in
  let rec dfs (progress : int array) model done_count =
    if done_count = total then true
    else begin
      let key = (Array.to_list progress, canonical model) in
      if Hashtbl.mem visited key then false
      else begin
        Hashtbl.add visited key ();
        (* Earliest response among all pending heads: any op invoked
           after that response cannot linearize first. *)
        let min_res = ref max_int in
        for i = 0 to n_threads - 1 do
          if progress.(i) < Array.length threads.(i) then
            min_res := min !min_res threads.(i).(progress.(i)).res
        done;
        let ok = ref false in
        let i = ref 0 in
        while (not !ok) && !i < n_threads do
          (if progress.(!i) < Array.length threads.(!i) then begin
             let e = threads.(!i).(progress.(!i)) in
             if e.inv <= !min_res then begin
               let model', expected = sequential_apply model e.op in
               if expected = e.result then begin
                 progress.(!i) <- progress.(!i) + 1;
                 if dfs progress model' (done_count + 1) then ok := true
                 else progress.(!i) <- progress.(!i) - 1
               end
             end
           end);
          incr i
        done;
        !ok
      end
    end
  in
  dfs (Array.make n_threads 0) [] 0

(* --------------------------- random driver ------------------------- *)

let run_random (module M : IMAP) ~seed ~threads ~ops_per_thread ~key_range =
  let rng = Ct_util.Rng.create seed in
  let random_op () =
    let k = Ct_util.Rng.next_int rng key_range in
    let v = Ct_util.Rng.next_int rng 100 in
    match Ct_util.Rng.next_int rng 7 with
    | 0 -> Lookup k
    | 1 -> Insert (k, v)
    | 2 -> Remove k
    | 3 -> Put_if_absent (k, v)
    | 4 -> Replace_if (k, Ct_util.Rng.next_int rng 100, v)
    | 5 -> Remove_if (k, Ct_util.Rng.next_int rng 100)
    | _ -> Replace (k, v)
  in
  let scripts =
    List.init threads (fun _ -> List.init ops_per_thread (fun _ -> random_op ()))
  in
  check (record (module M) scripts)

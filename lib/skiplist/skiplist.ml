(* Lock-free skip list with logical deletion marks (Herlihy-Shavit
   style).  Towers are ordered by 32-bit mixed hash; a node carries the
   binding list for its hash, updated by CAS on an immutable list.  A
   node whose binding list becomes empty is logically dead and gets
   marked and unlinked; any thread observing an empty list helps. *)

module Hashing = Ct_util.Hashing
module Rng = Ct_util.Rng
module Yp = Ct_util.Yieldpoint
module Metrics = Ct_util.Metrics

(* Yield points (DESIGN.md "Fault injection & robustness"): one site
   per distinct CAS, so the chaos layer can crash a victim between the
   logical and physical steps of a removal (bindings emptied / upper
   levels marked / level 0 marked / physical unlink) or mid-insert. *)
let yp_insert_splice = Yp.register "skiplist.insert.splice"
let yp_insert_link = Yp.register "skiplist.insert.link"
let yp_update_bindings = Yp.register "skiplist.update.bindings"
let yp_remove_bindings = Yp.register "skiplist.remove.bindings"
let yp_mark_upper = Yp.register "skiplist.mark.upper"
let yp_mark_level0 = Yp.register "skiplist.mark.level0"
let yp_unlink = Yp.register "skiplist.unlink"

(* Read-path yield point at the head of every lookup, so the
   deterministic scheduler (lib/mc) can interleave reads with writer
   CASes.  One site per operation (not per level): a 24-level tower
   walk would multiply the explorer's schedule depth for no extra
   coverage at mc's script sizes. *)
let yp_read_locate = Yp.register_read "skiplist.read.locate"

let yp_cas m site slot expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Atomic.compare_and_set slot expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

let max_height = 24

(* Tower heights are normally drawn from a domain-local PRNG whose
   state survives across runs — which makes two executions of the same
   operation sequence build different towers.  The deterministic
   scheduler needs replayable structure, so it can switch heights to a
   shared counter-driven ruler sequence (1,2,1,3,1,2,1,4,...): same
   op order in, same skip list out.  Global across Make instances on
   purpose: mc resets it at the start of every schedule execution. *)
let det_heights : int Atomic.t option Atomic.t = Atomic.make None

let set_deterministic_heights enabled =
  Atomic.set det_heights (if enabled then Some (Atomic.make 0) else None)

(* Height of the [n]-th deterministic tower: 1 + trailing zeros of
   n+1, the ruler sequence — the same 1/2^h height distribution the
   PRNG targets, with no state beyond the counter. *)
let ruler_height n =
  let rec go h m =
    if h >= max_height || m land 1 = 1 then h else go (h + 1) (m lsr 1)
  in
  go 1 (n + 1)

module Make (H : Hashing.HASHABLE) = struct
  type key = H.t

  let name = "skiplist"

  type 'v node = {
    nhash : int;  (* ordering key; head = -1, tail = 2^32 *)
    bindings : (key * 'v) list Atomic.t;
    next : 'v link Atomic.t array;  (* length = tower height *)
  }

  and 'v link = { succ : 'v node; marked : bool }
  (* [succ] of the tail node points to itself and is never followed. *)

  type 'v t = { head : 'v node; tail : 'v node; metrics : Metrics.t }

  let create () =
    (* The tail's own links are never followed (every traversal checks
       [is_tail] first), so its tower can stay empty. *)
    let tail =
      { nhash = 1 lsl Hashing.hash_bits; bindings = Atomic.make []; next = [||] }
    in
    let head =
      {
        nhash = -1;
        bindings = Atomic.make [];
        next =
          Array.init max_height (fun _ -> Atomic.make { succ = tail; marked = false });
      }
    in
    { head; tail; metrics = Metrics.create ~family:name }

  let hash_of k = H.hash k land Hashing.mask
  let is_tail t n = n == t.tail

  (* Domain-local PRNG for tower heights (p = 1/2). *)
  let rng_key =
    Domain.DLS.new_key (fun () ->
        Rng.create (0x5DEECE66D lxor (Domain.self () :> int)))

  let random_height () =
    match Atomic.get det_heights with
    | Some counter -> ruler_height (Atomic.fetch_and_add counter 1)
    | None ->
        let rng = Domain.DLS.get rng_key in
        let r = Rng.next rng in
        let rec go h bits =
          if h >= max_height || bits land 1 = 0 then h else go (h + 1) (bits lsr 1)
        in
        go 1 r

  (* find returns [(preds, succs)] such that at every level
     [preds.(l).nhash < h <= succs.(l).nhash], unlinking marked nodes
     along the way (restarting on CAS interference). *)
  let rec search_towers t h : 'v node array * 'v node array =
    let preds = Array.make max_height t.head in
    let succs = Array.make max_height t.tail in
    let restart = ref false in
    let pred = ref t.head in
    let level = ref (max_height - 1) in
    while !level >= 0 && not !restart do
      let continue_level = ref true in
      let curr = ref (Atomic.get !pred.next.(!level)).succ in
      while !continue_level && not !restart do
        if is_tail t !curr then begin
          preds.(!level) <- !pred;
          succs.(!level) <- !curr;
          continue_level := false
        end
        else begin
          let clink = Atomic.get !curr.next.(!level) in
          if clink.marked then begin
            (* Help unlink the marked node. *)
            let plink = Atomic.get !pred.next.(!level) in
            if plink.marked || plink.succ != !curr then restart := true
            else if
              yp_cas t.metrics yp_unlink !pred.next.(!level) plink
                { succ = clink.succ; marked = false }
            then begin
              Metrics.incr t.metrics Metrics.Helps;
              curr := clink.succ
            end
            else restart := true
          end
          else if !curr.nhash < h then begin
            pred := !curr;
            curr := clink.succ
          end
          else begin
            preds.(!level) <- !pred;
            succs.(!level) <- !curr;
            continue_level := false
          end
        end
      done;
      decr level
    done;
    if !restart then search_towers t h else (preds, succs)

  (* Mark every level of [node], then let [find] unlink it.  The level-0
     mark is the tower's death — the skip list's analogue of an
     entombment, awaiting physical unlink. *)
  let rec mark_node t (node : 'v node) =
    let height = Array.length node.next in
    for level = height - 1 downto 1 do
      let rec mark () =
        let link = Atomic.get node.next.(level) in
        if not link.marked then
          if not (yp_cas t.metrics yp_mark_upper node.next.(level) link
                    { succ = link.succ; marked = true })
          then mark ()
      in
      mark ()
    done;
    (* Level 0 is the linearization point of the tower's death. *)
    let link = Atomic.get node.next.(0) in
    if not link.marked then begin
      if
        yp_cas t.metrics yp_mark_level0 node.next.(0) link
          { succ = link.succ; marked = true }
      then begin
        Metrics.incr t.metrics Metrics.Entombments;
        ignore (search_towers t node.nhash) (* physically unlink *)
      end
      else mark_node t node
    end
    else ignore (search_towers t node.nhash)

  (* Locate the live node for hash [h] (read-only path); raises
     (notrace) when absent.  Top-level recursion — the old local [go]
     closure allocated on every lookup — and no option box on a hit. *)
  let rec locate t h (pred : 'v node) level : 'v node =
    let curr = (Atomic.get pred.next.(level)).succ in
    if is_tail t curr || curr.nhash > h then
      if level = 0 then raise_notrace Not_found else locate t h pred (level - 1)
    else if curr.nhash < h then locate t h curr level
    else begin
      let clink = Atomic.get curr.next.(0) in
      if clink.marked then raise_notrace Not_found else curr
    end

  let find_node t h : 'v node option =
    match locate t h t.head (max_height - 1) with
    | node -> Some node
    | exception Not_found -> None

  (* Association-list operations with the structure's own key equality
     (the [List.assoc_opt]/[List.remove_assoc] they replace used
     polymorphic [=]; with an [H.equal] coarser than [(=)] the binding
     update paths accumulated duplicate entries — same bug family the
     lib/mc hostile-equality scenarios flushed out of the cachetrie). *)
  let rec lassoc k = function
    | [] -> raise_notrace Not_found
    | (k', v) :: rest -> if H.equal k' k then v else lassoc k rest

  let lassoc_opt k entries =
    match lassoc k entries with v -> Some v | exception Not_found -> None

  let rec lremove_assoc k = function
    | [] -> []
    | ((k', _) as pair) :: rest ->
        if H.equal k' k then rest else pair :: lremove_assoc k rest

  let find t k =
    let h = hash_of k in
    Yp.here Yp.Before yp_read_locate;
    lassoc k (Atomic.get (locate t h t.head (max_height - 1)).bindings)

  let lookup t k = match find t k with v -> Some v | exception Not_found -> None
  let mem t k = match find t k with _ -> true | exception Not_found -> false

  (* ------------------------------ updates --------------------------- *)

  type 'v mode = Always | If_absent | If_present | If_value of 'v

  let rec update t k v mode : 'v option =
    let h = hash_of k in
    let preds, succs = search_towers t h in
    let candidate = succs.(0) in
    if (not (is_tail t candidate)) && candidate.nhash = h then begin
      (* Hash already present: update its binding list. *)
      let bindings = Atomic.get candidate.bindings in
      if bindings = [] then begin
        (* Node logically dead; help bury it and retry. *)
        Metrics.incr t.metrics Metrics.Helps;
        mark_node t candidate;
        update t k v mode
      end
      else begin
        let previous = lassoc_opt k bindings in
        let proceed =
          match (mode, previous) with
          | If_absent, Some _ -> false
          | (If_present | If_value _), None -> false
          | If_value expected, Some p -> p == expected
          | (Always | If_absent | If_present), _ -> true
        in
        if not proceed then previous
        else begin
          let nb = (k, v) :: lremove_assoc k bindings in
          (* A successful CAS from a non-empty list is the
             linearization point: the list can only become empty (and
             the node die) by first CASing away the list we swapped,
             so no post-hoc mark check is needed — and retrying here
             would wrongly apply the operation twice. *)
          if yp_cas t.metrics yp_update_bindings candidate.bindings bindings nb
          then previous
          else update t k v mode
        end
      end
    end
    else if
      match mode with If_present | If_value _ -> true | Always | If_absent -> false
    then None
    else begin
      (* Splice in a fresh tower. *)
      let height = random_height () in
      let node =
        {
          nhash = h;
          bindings = Atomic.make [ (k, v) ];
          next =
            Array.init height (fun l ->
                Atomic.make { succ = succs.(l); marked = false });
        }
      in
      let plink = Atomic.get preds.(0).next.(0) in
      if plink.marked || plink.succ != succs.(0) then update t k v mode
      else if not (yp_cas t.metrics yp_insert_splice preds.(0).next.(0) plink
                     { succ = node; marked = false })
      then update t k v mode
      else begin
        (* Level 0 linked: the insert is linearized.  Link the upper
           levels best-effort, re-finding on interference. *)
        let rec link_level level preds succs =
          if level < height then begin
            let nlink = Atomic.get node.next.(level) in
            if nlink.marked then () (* concurrently removed; stop *)
            else begin
              if nlink.succ != succs.(level) then
                ignore
                  (Atomic.compare_and_set node.next.(level) nlink
                     { succ = succs.(level); marked = false });
              let plink = Atomic.get preds.(level).next.(level) in
              if
                (not plink.marked)
                && plink.succ == succs.(level)
                && yp_cas t.metrics yp_insert_link preds.(level).next.(level)
                     plink { succ = node; marked = false }
              then link_level (level + 1) preds succs
              else begin
                let preds', succs' = search_towers t h in
                if succs'.(0) == node then link_level level preds' succs'
                (* else the node was removed concurrently; stop *)
              end
            end
          end
        in
        link_level 1 preds succs;
        None
      end
    end

  let insert t k v = ignore (update t k v Always)
  let add t k v = update t k v Always
  let put_if_absent t k v = update t k v If_absent
  let replace t k v = update t k v If_present

  let replace_if t k ~expected v =
    match update t k v (If_value expected) with
    | Some p -> p == expected
    | None -> false

  let rec remove_with t k cond : 'v option =
    let h = hash_of k in
    match find_node t h with
    | None -> None
    | Some node -> (
        let bindings = Atomic.get node.bindings in
        match lassoc_opt k bindings with
        | None ->
            if bindings = [] then begin
              Metrics.incr t.metrics Metrics.Helps;
              mark_node t node;
              remove_with t k cond
            end
            else None
        | Some prev when not (cond prev) -> Some prev
        | Some prev ->
            let nb = lremove_assoc k bindings in
            if yp_cas t.metrics yp_remove_bindings node.bindings bindings nb
            then begin
              if nb = [] then mark_node t node;
              Some prev
            end
            else remove_with t k cond)

  let remove t k = remove_with t k (fun _ -> true)

  let remove_if t k ~expected =
    match remove_with t k (fun v -> v == expected) with
    | Some p -> p == expected
    | None -> false

  (* ------------------------- aggregate queries ---------------------- *)

  let fold f acc t =
    let rec go acc (node : 'v node) =
      if is_tail t node then acc
      else begin
        let link = Atomic.get node.next.(0) in
        let acc =
          if link.marked then acc
          else
            List.fold_left (fun acc (k, v) -> f acc k v) acc (Atomic.get node.bindings)
        in
        go acc link.succ
      end
    in
    go acc (Atomic.get t.head.next.(0)).succ

  let iter f t = fold (fun () k v -> f k v) () t
  let size t = fold (fun n _ _ -> n + 1) 0 t
  let is_empty t = size t = 0
  let to_list t = fold (fun acc k v -> (k, v) :: acc) [] t

  let height_histogram t =
    let hist = Array.make max_height 0 in
    let rec go (node : 'v node) =
      if not (is_tail t node) then begin
        let link = Atomic.get node.next.(0) in
        if not link.marked then begin
          let h = Array.length node.next in
          hist.(h - 1) <- hist.(h - 1) + 1
        end;
        go link.succ
      end
    in
    go (Atomic.get t.head.next.(0)).succ;
    hist

  (* Structural invariants, checked during quiescence. *)
  let validate t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    (* Level 0: strictly ascending hashes, unmarked, sane bindings. *)
    let level0 = Hashtbl.create 64 in
    let rec walk0 (node : 'v node) last =
      if not (is_tail t node) then begin
        let link = Atomic.get node.next.(0) in
        if link.marked then err "marked node reachable at level 0 during quiescence";
        if node.nhash <= last then err "level-0 hashes not strictly ascending";
        let h = Array.length node.next in
        if h < 1 || h > max_height then err "tower height %d out of bounds" h;
        (match Atomic.get node.bindings with
        | [] -> err "reachable node with empty bindings"
        | entries ->
            List.iter
              (fun (k, _) ->
                if hash_of k <> node.nhash then err "binding hash mismatch")
              entries);
        Hashtbl.replace level0 node.nhash ();
        walk0 link.succ node.nhash
      end
    in
    walk0 (Atomic.get t.head.next.(0)).succ (-1);
    (* Upper levels: sorted sublists of level 0. *)
    for level = 1 to max_height - 1 do
      let rec walk (node : 'v node) last =
        if not (is_tail t node) then begin
          if node.nhash <= last then err "level-%d hashes not ascending" level;
          if not (Hashtbl.mem level0 node.nhash) then
            err "level-%d node missing from level 0" level;
          if Array.length node.next <= level then
            err "node reachable above its tower height"
          else walk (Atomic.get node.next.(level)).succ node.nhash
        end
      in
      walk (Atomic.get t.head.next.(level)).succ (-1)
    done;
    match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

  (* Scrub: active residue sweep (DESIGN.md §9).  An abandoned removal
     can strand a tower in three states: bindings emptied but the tower
     never marked, upper levels marked but not level 0, or fully marked
     but still physically linked.  Pass 1 walks level 0 and finishes
     each of them ([mark_node] is idempotent and [search_towers]
     physically unlinks at every level); pass 2 sweeps the upper levels
     for any remaining marked links.  Every step is the helping a
     regular operation performs on encounter, so scrubbing is safe
     under live traffic; a residue-free structure yields 0. *)
  let scrub t =
    let repairs = ref 0 in
    let rec sweep0 (node : 'v node) =
      if not (is_tail t node) then begin
        let link = Atomic.get node.next.(0) in
        if link.marked then begin
          (* Dead tower still reachable: physically unlink it. *)
          ignore (search_towers t node.nhash);
          incr repairs
        end
        else if Atomic.get node.bindings = [] then begin
          (* Logically dead (last binding removed) but never buried. *)
          mark_node t node;
          incr repairs
        end;
        sweep0 link.succ
      end
    in
    sweep0 (Atomic.get t.head.next.(0)).succ;
    for level = max_height - 1 downto 1 do
      let rec sweepl (pred : 'v node) =
        let plink = Atomic.get pred.next.(level) in
        if not (is_tail t plink.succ) then begin
          let curr = plink.succ in
          let clink = Atomic.get curr.next.(level) in
          if clink.marked && not plink.marked then begin
            if
              yp_cas t.metrics yp_unlink pred.next.(level) plink
                { succ = clink.succ; marked = false }
            then incr repairs;
            (* Re-examine [pred] whether we or a helper unlinked. *)
            sweepl pred
          end
          else sweepl curr
        end
      in
      sweepl t.head
    done;
    Metrics.add t.metrics Metrics.Scrub_repairs !repairs;
    !repairs

  let metrics t = t.metrics
  let stats t = Metrics.snapshot t.metrics
  let reset_stats t = Metrics.reset t.metrics

  (* Word-cost model (DESIGN.md): node = 4 + tower (1 + h link boxes of
     2 + link records of 3) + bindings atomic 2 + list cells 3 each. *)
  let footprint_words t =
    let node_words (node : 'v node) =
      let h = Array.length node.next in
      4 + 1 + (h * 5) + 2 + (3 * List.length (Atomic.get node.bindings))
    in
    let rec go acc (node : 'v node) =
      if is_tail t node then acc + node_words node
      else go (acc + node_words node) (Atomic.get node.next.(0)).succ
    in
    go 0 t.head

  (* A tower walk re-derives its path from the marks it meets, so there
     is no per-level state to stage across keys: [find_batch] takes
     the scalar loop. *)
  include Ct_util.Map_intf.Batch_fallback (struct
    type nonrec key = key
    type nonrec 'v t = 'v t

    let find = find
  end)
end

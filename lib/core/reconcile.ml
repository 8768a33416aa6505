module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type config = {
  gc_after : float;
  sync_budget : int;
  seed_refs : int;
  period : float;
}

let default_config =
  { gc_after = 3600.; sync_budget = 200; seed_refs = 4; period = 120. }

type sync_result = { copied : int; tombstoned : int }

(* The effective per-key state of one node: the sidecar entry if any,
   else the implicit (version 0, alive) of the pre-versioning world.
   [present] is store presence, independent of the sidecar (a dead entry
   with [present = false] is a pure tombstone). *)
type state = { v : int; dead : bool; st : float; present : bool }

let state_of n key =
  match Node.meta n key with
  | Some m ->
    { v = m.Node.version; dead = m.Node.dead; st = m.Node.stamp;
      present = Node.has_key n key }
  | None -> { v = 0; dead = false; st = 0.; present = Node.has_key n key }

(* Union of both nodes' known keys — store and sidecar, so pure
   tombstones participate. *)
let known_keys na nb =
  let seen = Hashtbl.create 64 in
  let note k = if not (Hashtbl.mem seen k) then Hashtbl.replace seen k () in
  Hashtbl.iter (fun k _ -> note k) na.Node.store;
  Hashtbl.iter (fun k _ -> note k) nb.Node.store;
  Node.meta_fold na (fun k _ () -> note k) ();
  Node.meta_fold nb (fun k _ () -> note k) ();
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let sync_pair t ~a ~b ~budget =
  if budget < 0 then invalid_arg "Reconcile.sync_pair: negative budget";
  if a = b then { copied = 0; tombstoned = 0 }
  else begin
    let na = Overlay.node t a and nb = Overlay.node t b in
    if
      (not na.Node.online)
      || (not nb.Node.online)
      || not (Path.equal na.Node.path nb.Node.path)
    then { copied = 0; tombstoned = 0 }
    else begin
      let copied = ref 0 and tombstoned = ref 0 in
      let copy_payloads src dst key =
        (* Ensure key presence even when payload-less (construction seeds
           keys without postings), then fill missing postings. *)
        if Node.has_key src key && not (Node.has_key dst key) then begin
          Node.ensure_key dst key;
          incr copied
        end;
        List.iter
          (fun p ->
            if !copied < budget && Node.insert_new dst key p then incr copied)
          (Node.lookup src key)
      in
      let entomb n key ~version ~stamp =
        if Node.has_key n key then begin
          Node.remove_key n key;
          incr tombstoned
        end;
        Node.note_delete n key ~version ~stamp
      in
      (try
         List.iter
           (fun key ->
             if !copied >= budget then raise Exit;
             let sa = state_of na key and sb = state_of nb key in
             let win, lose_n =
               if sa.v > sb.v then (sa, nb)
               else if sb.v > sa.v then (sb, na)
               else if sa.dead then (sa, nb) (* tombstone beats the tie *)
               else (sb, na)
             in
             if win.dead then begin
               (* Newest write is a delete: it erases every stale copy on
                  both sides and leaves the tombstone everywhere. *)
               entomb na key ~version:win.v ~stamp:win.st;
               entomb nb key ~version:win.v ~stamp:win.st
             end
             else if sa.dead || sb.dead then begin
               (* A write strictly newer than the tombstone: the key is
                  legitimately back; clear the tombstone and copy. *)
               let win_n = if lose_n == na then nb else na in
               copy_payloads win_n lose_n key;
               Node.note_write na key ~version:win.v ~stamp:win.st;
               Node.note_write nb key ~version:win.v ~stamp:win.st
             end
             else begin
               (* Both alive: inserts are additive, so the union is the
                  newest state regardless of which side wrote last. *)
               copy_payloads na nb key;
               copy_payloads nb na key;
               if win.v > 0 then begin
                 Node.note_write na key ~version:win.v ~stamp:win.st;
                 Node.note_write nb key ~version:win.v ~stamp:win.st
               end
             end)
           (known_keys na nb)
       with Exit -> ());
      Node.add_replica na b;
      Node.add_replica nb a;
      (* Cached answers for either store are stale now. *)
      if !copied + !tombstoned > 0 then begin
        Overlay.notify t (Overlay.Peer_changed a);
        Overlay.notify t (Overlay.Peer_changed b)
      end;
      { copied = !copied; tombstoned = !tombstoned }
    end
  end

let gc cfg t ~now =
  let horizon = now -. cfg.gc_after in
  let purged = ref 0 in
  Overlay.iter t (fun n ->
      if n.Node.online then begin
        let doomed =
          Node.meta_fold n
            (fun k m acc ->
              if m.Node.dead && m.Node.stamp <= horizon then k :: acc else acc)
            []
        in
        List.iter (Node.drop_meta n) doomed;
        purged := !purged + List.length doomed
      end);
  !purged

let tombstone_debt t =
  let debt = ref 0 in
  Overlay.iter t (fun n ->
      if n.Node.online then debt := !debt + Node.tombstone_count n);
  !debt

(* --- structural divergence ---------------------------------------------- *)

(* Two islands that split the same path independently leave, after heal,
   an inhabited path with inhabited strict descendants: queries for a key
   under the short path race between the straggler and the deeper
   specialist, and each holds keys the other believes it owns.  A
   conflict is repaired by completing the split deterministically: every
   peer still at the short path is demoted into one child (the empty one
   if a child is uninhabited, else the thinner one, ties to "0"), after
   copying each key and tombstone it would orphan to the online peers
   responsible for it on the other side. *)

let conflicts t =
  let paths = Hashtbl.create 64 in
  Overlay.iter t (fun n ->
      if n.Node.online then
        Hashtbl.replace paths (Path.to_string n.Node.path) n.Node.path);
  let inhabited = Hashtbl.fold (fun _ p acc -> p :: acc) paths [] in
  List.filter
    (fun p ->
      List.exists
        (fun q -> Path.length q > Path.length p && Path.is_prefix_of ~prefix:p q)
        inhabited)
    inhabited
  |> List.sort Path.compare

let repair_structure ?(telemetry = Pgrid_telemetry.Global.get ()) cfg t =
  let conflict_paths = conflicts t in
  List.iter
    (fun p ->
      let level = Path.length p in
      let members = ref [] and n0 = ref 0 and n1 = ref 0 in
      Overlay.iter t (fun n ->
          if n.Node.online then
            if Path.equal n.Node.path p then members := n :: !members
            else if
              Path.length n.Node.path > level
              && Path.is_prefix_of ~prefix:p n.Node.path
            then if Path.bit n.Node.path level = 0 then incr n0 else incr n1);
      let members = List.rev !members in
      if members <> [] then begin
        let bit =
          if !n0 = 0 then 0 else if !n1 = 0 then 1 else if !n0 <= !n1 then 0 else 1
        in
        let target = Path.extend p bit in
        let moved = ref 0 in
        (* Online peers on the other side of the completed split, by
           increasing id so the repair is deterministic. *)
        let others = ref [] in
        Overlay.iter t (fun n ->
            if
              n.Node.online
              && Path.length n.Node.path > level
              && Path.is_prefix_of ~prefix:p n.Node.path
              && Path.bit n.Node.path level = 1 - bit
            then others := n :: !others);
        let others = List.rev !others in
        List.iter
          (fun m ->
            (* Re-home everything the demotion would orphan. *)
            List.iter
              (fun k ->
                if not (Path.matches_key target k) then begin
                  let meta = Node.meta m k in
                  List.iter
                    (fun r ->
                      if Node.responsible_for r k then begin
                        List.iter (fun pl -> ignore (Node.insert_new r k pl))
                          (Node.lookup m k);
                        if not (Node.has_key r k) then Node.ensure_key r k;
                        match meta with
                        | Some mm when mm.Node.version > 0 ->
                          Node.note_write r k ~version:mm.Node.version
                            ~stamp:mm.Node.stamp
                        | _ -> ()
                      end)
                    others;
                  incr moved
                end)
              (Node.keys m);
            (* Orphaned tombstones travel too — a delete must survive the
               repair as surely as a put. *)
            Node.meta_fold m
              (fun k mm () ->
                if mm.Node.dead && not (Path.matches_key target k) then
                  List.iter
                    (fun r ->
                      if Node.responsible_for r k then begin
                        if Node.has_key r k then Node.remove_key r k;
                        Node.note_delete r k ~version:mm.Node.version
                          ~stamp:mm.Node.stamp
                      end)
                    others)
              ();
            Node.set_path m target;
            Overlay.notify t (Overlay.Peer_changed m.Node.id);
            ignore (Node.drop_keys_outside m target))
          members;
        (* Complete the routing structure at the new level: demoted peers
           and the other side reference each other, and the demoted peers
           form a replica group with whoever already sits exactly at the
           target path. *)
        let seed = ref 0 in
        List.iter
          (fun r ->
            List.iter (fun m -> Node.add_ref r ~level m.Node.id) members;
            if !seed < cfg.seed_refs then begin
              List.iter (fun m -> Node.add_ref m ~level r.Node.id) members;
              incr seed
            end)
          others;
        let mates = ref [] in
        Overlay.iter t (fun n ->
            if n.Node.online && Path.equal n.Node.path target then
              mates := n :: !mates);
        List.iter
          (fun m ->
            List.iter
              (fun n ->
                Node.add_replica m n.Node.id;
                Node.add_replica n m.Node.id)
              !mates)
          members;
        Telemetry.emit telemetry
          (Event.Reconcile_repair
             {
               path = Path.to_string p;
               demoted = List.length members;
               moved = !moved;
             })
      end)
    conflict_paths;
  List.length conflict_paths

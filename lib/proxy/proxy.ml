(* Library facade. The single-node proxy implementation lives in
   [Node]; [Farm] composes several nodes behind a consistent-hash
   ring. Re-exported here so users write [Proxy.request],
   [Proxy.Farm.create], [Proxy.Cache.find] and so on. *)

module Cache = Serve_core.Cache
module Pipeline = Pipeline
module Httpwire = Httpwire
module Breaker = Breaker
module Admission = Serve_core.Admission

include Node

module Farm = Farm
module Control = Control

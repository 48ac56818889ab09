package repro.perfbench

import repro.core.{GnnModel, Models}
import repro.graphgen.{GraphGen, GraphSpec}

/** One benchmark input: a generated graph and a model. Both backends run on
  * every workload with their default options; MR runs also get a per-op
  * parquet spill dir, as Table III runs them.
  */
final case class Workload(name: String, spec: GraphSpec, model: GnnModel)

object Workloads {
  val names: Seq[String] = Seq("gat-mag", "sage-inskew")

  /** `seed` feeds both the graph generator and the model weights. */
  def apply(name: String, seed: Long): Workload = name match {
    case "gat-mag" =>
      // Non-associative path: every edge message is a Unioned entry.
      Workload(name, GraphGen.magLite(0.3, seed = seed),
        Models.gat(Seq(64, 32, 16), heads = 2, seed = seed))
    case "sage-inskew" =>
      // Associative combiner path over receiver hubs, three rounds.
      Workload(name, GraphGen.powerLaw(8000, 15, inSkew = true, seed = seed),
        Models.sage(Seq(16, 16, 16, 16), seed = seed))
    case other =>
      throw new IllegalArgumentException(s"unknown workload $other (one of ${names.mkString(", ")})")
  }
}

package repro.core

import repro.nn.DMat

/** A small graph materialized on the driver: the substrate for training
  * (mini-batch k-hop sampling + autodiff forward) and the single-machine
  * reference inference engine that the distributed backends are verified
  * against.
  *
  * `src`/`dst`/`w` are parallel edge arrays in *local index* space; `ids`
  * maps local index → original vertex id. `y` holds one-/multi-hot labels
  * (may be null for unlabeled graphs); `yIdx` the single-label class index.
  */
final case class LocalGraph(
    n: Int,
    ids: Array[Long],
    src: Array[Int],
    dst: Array[Int],
    w: Array[Double],
    x: DMat,
    y: DMat,
    yIdx: Array[Int]
) extends Serializable {
  require(ids.length == n && x.rows == n, "LocalGraph node arity mismatch")
  require(src.length == dst.length && src.length == w.length, "LocalGraph edge arity mismatch")

  def nEdges: Int = src.length
  def featDim: Int = x.cols

  /** In-edge adjacency (CSR-ish): for each vertex, indices of edges whose dst is it. */
  lazy val inEdgesOf: Array[Array[Int]] = {
    val cnt = new Array[Int](n)
    var e = 0
    while (e < nEdges) { cnt(dst(e)) += 1; e += 1 }
    val out = Array.tabulate(n)(i => new Array[Int](cnt(i)))
    val fill = new Array[Int](n)
    e = 0
    while (e < nEdges) { val d = dst(e); out(d)(fill(d)) = e; fill(d) += 1; e += 1 }
    out
  }

  def inDegree: Array[Int] = inEdgesOf.map(_.length)

  def outDegree: Array[Int] = {
    val cnt = new Array[Int](n)
    var e = 0
    while (e < nEdges) { cnt(src(e)) += 1; e += 1 }
    cnt
  }
}

/** Single-machine full-graph GAS inference — the reference engine.
  *
  * Runs the exact five-stage pipeline per layer, vertex by vertex, with no
  * parallelism tricks: ground truth for the Pregel and MapReduce backends.
  */
object LocalInference {

  /** Final-layer states (logits) for every vertex, N×outDim. */
  def forward(g: LocalGraph, model: GnnModel): DMat = {
    var h: Array[Array[Double]] = g.x.toRows
    model.layers.foreach { layer => h = forwardLayer(g, layer, h) }
    DMat.fromRows(h.toIndexedSeq)
  }

  /** One GAS round: scatter payloads, route edge messages, gather, apply. */
  def forwardLayer(g: LocalGraph, layer: GasLayer, h: Array[Array[Double]]): Array[Array[Double]] = {
    val payload = new Array[Array[Double]](g.n)
    var i = 0
    while (i < g.n) { payload(i) = layer.scatterPayload(h(i)); i += 1 }
    val readsDst = layer.signature.readsDst
    // a readsDst layer gets srcPayload ++ dstPayload in one buffer, refilled
    // for every edge (applyEdge does not keep its payload)
    val width = if (g.n == 0) 0 else payload(0).length
    val both = new Array[Double](if (readsDst) 2 * width else 0)
    val aggs = new Array[Agg](g.n)
    java.util.Arrays.fill(aggs.asInstanceOf[Array[AnyRef]], EmptyAgg)
    var e = 0
    while (e < g.nEdges) {
      val p = payload(g.src(e))
      if (readsDst) {
        System.arraycopy(p, 0, both, 0, width)
        System.arraycopy(payload(g.dst(e)), 0, both, width, width)
      }
      val m = layer.applyEdge(if (readsDst) both else p, g.w(e))
      aggs(g.dst(e)) = Agg.merge(aggs(g.dst(e)), layer.initAgg(m, g.w(e)))
      e += 1
    }
    val out = new Array[Array[Double]](g.n)
    i = 0
    while (i < g.n) { out(i) = layer.applyNode(h(i), aggs(i)); i += 1 }
    out
  }
}

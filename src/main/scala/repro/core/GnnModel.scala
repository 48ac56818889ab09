package repro.core

/** A stack of GAS layers plus the prediction head flavor.
  *
  * The paper attaches the prediction slice to the last superstep / reduce;
  * here the last layer's output *is* the logits and [[predict]] /
  * [[predictMulti]] implement the head (argmax for single-label, sigmoid
  * threshold for multi-label).
  */
final case class GnnModel(layers: Seq[GasLayer], multiLabel: Boolean = false) extends Serializable {
  require(layers.nonEmpty, "model needs at least one layer")
  layers.sliding(2).foreach {
    case Seq(a, b) => require(a.outDim == b.inDim, s"layer dim mismatch ${a.outDim} -> ${b.inDim}")
    case _         =>
  }
  def inDim: Int = layers.head.inDim
  def outDim: Int = layers.last.outDim
  def hops: Int = layers.size

  /** `feat` as vertex `id`'s input, failing with an error that names layer 0,
    * its width and the vertex if `feat` is not `inDim` wide.
    */
  def input(id: Long, feat: Array[Double]): Array[Double] = {
    require(feat.length == inDim, s"layer 0 expects features of width $inDim, vertex $id has ${feat.length}")
    feat
  }

  /** Single-label prediction from final-layer logits. */
  def predict(logits: Array[Double]): Int = {
    var best = 0; var i = 1
    while (i < logits.length) { if (logits(i) > logits(best)) best = i; i += 1 }
    best
  }

  /** Multi-label prediction: sigmoid(logit) > 0.5 ⇔ logit > 0. */
  def predictMulti(logits: Array[Double]): Array[Boolean] = logits.map(_ > 0.0)

  def signatures: Seq[LayerSig] = layers.map(_.signature)
}

/**
 * @file
 * Sequential network container, softmax cross-entropy loss, and the Adam
 * optimizer — the training machinery behind the paper's classifier.
 */

#ifndef BF_ML_NETWORK_HH
#define BF_ML_NETWORK_HH

#include <memory>
#include <vector>

#include "ml/layer.hh"

namespace bigfish::ml {

/** A straight-line stack of layers. */
class Sequential
{
  public:
    Sequential() = default;

    /** Appends a layer; returns *this for chaining. */
    Sequential &add(std::unique_ptr<Layer> layer);

    /** Runs all layers forward on one sample. */
    Matrix forward(const Matrix &in, bool train);

    /** Backpropagates through all layers (after a forward call). */
    Matrix backward(const Matrix &grad_out);

    /** True when every layer implements the batched interface. */
    bool supportsBatch() const;

    /**
     * forward() over a column-concatenated minibatch (see layer.hh for
     * the layout). Requires supportsBatch().
     */
    Matrix forwardBatch(const Matrix &in, std::size_t samples, bool train);

    /** Backpropagates through the most recent forwardBatch(). */
    Matrix backwardBatch(const Matrix &grad_out, std::size_t samples);

    /**
     * backwardBatch() for the training step, which reads only parameter
     * gradients: the first layer's input gradient is not computed
     * (Layer::backwardBatchParamsOnly()). The gradients are bitwise
     * those of backwardBatch().
     */
    void backwardBatchParamsOnly(const Matrix &grad_out,
                                 std::size_t samples);

    /** All trainable parameter tensors. */
    std::vector<Matrix *> params();

    /** All gradient buffers, aligned with params(). */
    std::vector<Matrix *> grads();

    /** Clears every gradient buffer. */
    void zeroGrads();

    /** Number of layers. */
    std::size_t size() const { return layers_.size(); }

    /** Total number of trainable scalars. */
    std::size_t numParameters();

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

/**
 * Softmax + cross-entropy head.
 *
 * Computes class probabilities from logits and, during training, the
 * loss gradient (probs - onehot) to feed Sequential::backward.
 */
struct SoftmaxCrossEntropy
{
    /** Probabilities from a (classes x 1) logit vector. */
    static std::vector<double> probabilities(const Matrix &logits);

    /** Cross-entropy loss of the true class. */
    static double loss(const Matrix &logits, Label truth);

    /** dLoss/dLogits = softmax(logits) - onehot(truth). */
    static Matrix gradient(const Matrix &logits, Label truth);

    /**
     * Loss and gradient from a single softmax evaluation (the training
     * hot path; calling loss() + gradient() separately computes the
     * probabilities twice). @p grad is resized to (classes x 1).
     */
    static double lossAndGradient(const Matrix &logits, Label truth,
                                  Matrix &grad);

    /**
     * Summed loss and per-column gradients over a (classes x B) logit
     * batch; @p truths supplies the B labels in column order and @p grad
     * is resized to (classes x B).
     */
    static double lossAndGradientBatch(const Matrix &logits,
                                       const std::vector<Label> &truths,
                                       Matrix &grad);
};

/** True when every element of every tensor is finite. */
bool allFinite(const std::vector<Matrix *> &tensors);

/** Adam optimizer (the paper uses Adam with lr = 0.001). */
class Adam
{
  public:
    /**
     * @param lr Learning rate.
     * @param beta1 First-moment decay.
     * @param beta2 Second-moment decay.
     * @param eps Numerical floor.
     */
    explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    /**
     * Applies one update step.
     * @param params Parameter tensors.
     * @param grads Gradient tensors aligned with @p params.
     * @param scale Multiplier applied to gradients (1/batch size).
     */
    void step(const std::vector<Matrix *> &params,
              const std::vector<Matrix *> &grads, double scale = 1.0);

    /**
     * Applies one update step unless any gradient is non-finite, in
     * which case the parameters and optimizer state are left untouched.
     * Exploding LSTM gradients or NaN-poisoned inputs would otherwise
     * silently destroy the model; skipping the batch recovers.
     *
     * @return true when the step was applied.
     */
    bool stepIfFinite(const std::vector<Matrix *> &params,
                      const std::vector<Matrix *> &grads,
                      double scale = 1.0);

  private:
    double lr_, beta1_, beta2_, eps_;
    int t_ = 0;
    std::vector<std::vector<float>> m_, v_;
};

} // namespace bigfish::ml

#endif // BF_ML_NETWORK_HH
